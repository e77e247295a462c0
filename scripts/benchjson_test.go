package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: cdcs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCampaignParallel/j=1-16         	       5	1002003004 ns/op	  123456 B/op	    7890 allocs/op
BenchmarkCampaignParallel/j=2-16         	       5	 501001502 ns/op	  123456 B/op	    7890 allocs/op
BenchmarkCampaignParallel/j=1-16         	       5	 900000000 ns/op	  123456 B/op	    7890 allocs/op
BenchmarkExpFig11-16                     	       1	2000000000 ns/op	        1.414 ws
PASS
pkg: cdcs/internal/place
BenchmarkOptimisticPlace64-16            	   20000	     55545 ns/op
ok  	cdcs	10.0s
`

func parseString(t *testing.T, s string) *File {
	t.Helper()
	f, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseBenchOutput(t *testing.T) {
	f := parseString(t, sampleBenchOutput)
	if f.Goos != "linux" || f.Goarch != "amd64" || !strings.Contains(f.CPU, "Xeon") {
		t.Errorf("environment headers wrong: %+v", f)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("%d benchmarks parsed, want 4 (repeat runs deduped)", len(f.Benchmarks))
	}
	byName := map[string]Benchmark{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
	}
	// The -GOMAXPROCS suffix is stripped.
	j1, ok := byName["BenchmarkCampaignParallel/j=1"]
	if !ok {
		t.Fatalf("j=1 benchmark missing (names: %v)", f.Benchmarks)
	}
	// -count repeats keep the best (minimum) ns/op.
	if j1.NsPerOp != 900000000 {
		t.Errorf("j=1 ns/op %v, want best-of 900000000", j1.NsPerOp)
	}
	if j1.Pkg != "cdcs" {
		t.Errorf("j=1 pkg %q", j1.Pkg)
	}
	if j1.Metrics["B/op"] != 123456 || j1.Metrics["allocs/op"] != 7890 {
		t.Errorf("j=1 metrics %v", j1.Metrics)
	}
	// Custom b.ReportMetric units land in Metrics.
	if ws := byName["BenchmarkExpFig11"].Metrics["ws"]; ws != 1.414 {
		t.Errorf("custom ws metric = %v, want 1.414", ws)
	}
	// Package attribution follows pkg: headers.
	if got := byName["BenchmarkOptimisticPlace64"].Pkg; got != "cdcs/internal/place" {
		t.Errorf("place benchmark pkg %q", got)
	}
	// Benchmarks without extra metrics have a nil map.
	if byName["BenchmarkOptimisticPlace64"].Metrics != nil {
		t.Errorf("expected nil metrics, got %v", byName["BenchmarkOptimisticPlace64"].Metrics)
	}
}

func TestParseRejectsBadLines(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader(
		"BenchmarkX 1 notanumber ns/op\n"))); err == nil {
		t.Error("bad metric value accepted")
	}
}

func TestParseEmptyInput(t *testing.T) {
	f := parseString(t, "no benchmarks here\n")
	if len(f.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(f.Benchmarks))
	}
}

// gateFiles builds a baseline/current pair with the given ns/op values for
// one gated benchmark.
func gateFiles(baseNs, curNs float64) (*File, *File) {
	base := &File{Benchmarks: []Benchmark{{Name: "BenchmarkCampaignParallel/j=1", NsPerOp: baseNs, Runs: 5}}}
	cur := &File{Benchmarks: []Benchmark{{Name: "BenchmarkCampaignParallel/j=1", NsPerOp: curNs, Runs: 5}}}
	return base, cur
}

func TestGateWithinBudgetPasses(t *testing.T) {
	base, cur := gateFiles(1000, 1100) // +10% < 20%
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 0 {
		t.Errorf("gate failed a +10%% run: exit %d", code)
	}
}

func TestGateRegressionFails(t *testing.T) {
	base, cur := gateFiles(1000, 1300) // +30% > 20%
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 1 {
		t.Errorf("gate passed a +30%% regression: exit %d", code)
	}
}

func TestGateSkipsMissingSubBenchmarks(t *testing.T) {
	base, cur := gateFiles(1000, 1000)
	base.Benchmarks = append(base.Benchmarks, Benchmark{Name: "BenchmarkCampaignParallel/j=16", NsPerOp: 500})
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 0 {
		t.Errorf("gate failed on a baseline-only sub-benchmark: exit %d", code)
	}
}

func TestGateNoMatchingBaselineFails(t *testing.T) {
	base, cur := gateFiles(1000, 1000)
	if code := gate(io.Discard, base, cur, "BenchmarkNoSuch", 0.20); code != 1 {
		t.Errorf("gate passed with no matching baseline benchmarks: exit %d", code)
	}
}

// withMetrics sets B/op and allocs/op on the single gated benchmark.
func withMetrics(f *File, bop, allocs float64) *File {
	f.Benchmarks[0].Metrics = map[string]float64{"B/op": bop, "allocs/op": allocs}
	return f
}

func TestGateAllocRegressionFails(t *testing.T) {
	// ns/op within budget, allocs/op +50%: the memory gate must trip.
	base, cur := gateFiles(1000, 1000)
	withMetrics(base, 1000, 100)
	withMetrics(cur, 1000, 150)
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 1 {
		t.Errorf("gate passed a +50%% allocs/op regression: exit %d", code)
	}
}

func TestGateBytesRegressionFails(t *testing.T) {
	base, cur := gateFiles(1000, 1000)
	withMetrics(base, 1000, 100)
	withMetrics(cur, 1300, 100) // B/op +30%
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 1 {
		t.Errorf("gate passed a +30%% B/op regression: exit %d", code)
	}
}

func TestGateMetricsWithinBudgetPass(t *testing.T) {
	base, cur := gateFiles(1000, 1100)
	withMetrics(base, 1000, 100)
	withMetrics(cur, 1100, 110) // everything +10% < 20%
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 0 {
		t.Errorf("gate failed a +10%% run with metrics: exit %d", code)
	}
}

func TestGateSkipsMetricsAbsentFromBaseline(t *testing.T) {
	// Old baselines without -benchmem metrics still gate on ns/op alone,
	// even when the current run would look like a huge memory regression.
	base, cur := gateFiles(1000, 1000)
	withMetrics(cur, 999999, 999999)
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 0 {
		t.Errorf("gate failed on metrics the baseline never recorded: exit %d", code)
	}
}

func TestGateFailsWhenCurrentMissesGatedMetric(t *testing.T) {
	// The baseline gates memory metrics; a current run without them (e.g.
	// -benchmem dropped from the CI command) silently disables the gate,
	// so it must fail, not warn.
	base, cur := gateFiles(1000, 1000)
	withMetrics(base, 1000, 100)
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 1 {
		t.Errorf("gate passed a run missing gated metrics: exit %d", code)
	}
}

func TestGateWarnsOnUngatedNewBenchmarks(t *testing.T) {
	// A current-run benchmark matching the prefix with no baseline entry is
	// ungated: the gate must still pass (new coverage is not a regression)
	// but warn loudly so the baseline gets refreshed.
	base, cur := gateFiles(1000, 1000)
	cur.Benchmarks = append(cur.Benchmarks,
		Benchmark{Name: "BenchmarkCampaignParallel/j=4", NsPerOp: 999, Runs: 5})
	var log strings.Builder
	if code := gate(&log, base, cur, "BenchmarkCampaignParallel", 0.20); code != 0 {
		t.Errorf("gate failed on an added benchmark: exit %d", code)
	}
	out := log.String()
	if !strings.Contains(out, "WARNING") || !strings.Contains(out, "BenchmarkCampaignParallel/j=4") ||
		!strings.Contains(out, "NO BASELINE") {
		t.Errorf("no loud warning for the ungated benchmark; log:\n%s", out)
	}
	// Benchmarks outside the prefix stay silent.
	cur.Benchmarks = append(cur.Benchmarks, Benchmark{Name: "BenchmarkUnrelated", NsPerOp: 1})
	log.Reset()
	gate(&log, base, cur, "BenchmarkCampaignParallel", 0.20)
	if strings.Contains(log.String(), "BenchmarkUnrelated") {
		t.Errorf("warned about a benchmark outside the gate prefix; log:\n%s", log.String())
	}
}

func TestGateZeroAllocBaselineRegression(t *testing.T) {
	// A 0 allocs/op baseline has no ratio to scale: any nonzero current
	// value is a regression from zero and must trip the gate.
	base, cur := gateFiles(1000, 1000)
	withMetrics(base, 1000, 0)
	withMetrics(cur, 1000, 10)
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 1 {
		t.Errorf("gate passed a regression from 0 allocs/op: exit %d", code)
	}
	// Staying at zero passes.
	withMetrics(cur, 1000, 0)
	if code := gate(io.Discard, base, cur, "BenchmarkCampaignParallel", 0.20); code != 0 {
		t.Errorf("gate failed an alloc-free run against an alloc-free baseline: exit %d", code)
	}
}

func TestGateKnotsRegressionFails(t *testing.T) {
	// A lost early exit in step 1 multiplies the cost-curve knots (33× at
	// 128×128) while ns/op can stay inside the bound on a contended host:
	// the deterministic work count must trip the gate on its own.
	base := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/128x128", NsPerOp: 1000, Runs: 5,
		Metrics: map[string]float64{"B/op": 1000, "allocs/op": 100, "knots/op": 510000}}}}
	cur := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/128x128", NsPerOp: 1150, Runs: 5,
		Metrics: map[string]float64{"B/op": 1000, "allocs/op": 100, "knots/op": 33 * 510000}}}}
	var log strings.Builder
	if code := gate(&log, base, cur, "BenchmarkReconfigure", 0.20); code != 1 {
		t.Errorf("gate passed a 33x knots/op regression: exit %d\n%s", code, log.String())
	}
	if !strings.Contains(log.String(), "knots/op") {
		t.Errorf("gate log does not name knots/op:\n%s", log.String())
	}
	// The same run without the knot blow-up passes.
	cur.Benchmarks[0].Metrics["knots/op"] = 510000
	if code := gate(io.Discard, base, cur, "BenchmarkReconfigure", 0.20); code != 0 {
		t.Errorf("gate failed a run with unchanged knots/op: exit %d", code)
	}
}

func TestGateCurvesRegressionFails(t *testing.T) {
	// Lost curve sharing in step 1 builds one cost curve per VC instead of
	// one per profile (64× at 128×128) while knots/op, the per-VC curve
	// length, stays put and ns/op can stay inside the bound on a contended
	// host: the distinct-curve count must trip the gate on its own.
	base := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/128x128", NsPerOp: 1000, Runs: 5,
		Metrics: map[string]float64{"B/op": 1000, "allocs/op": 100, "knots/op": 510646, "curves/op": 16}}}}
	cur := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/128x128", NsPerOp: 1150, Runs: 5,
		Metrics: map[string]float64{"B/op": 1000, "allocs/op": 100, "knots/op": 510646, "curves/op": 1024}}}}
	var log strings.Builder
	if code := gate(&log, base, cur, "BenchmarkReconfigure", 0.20); code != 1 {
		t.Errorf("gate passed a 64x curves/op regression: exit %d\n%s", code, log.String())
	}
	if !strings.Contains(log.String(), "curves/op") {
		t.Errorf("gate log does not name curves/op:\n%s", log.String())
	}
	// The same run with sharing intact passes.
	cur.Benchmarks[0].Metrics["curves/op"] = 16
	if code := gate(io.Discard, base, cur, "BenchmarkReconfigure", 0.20); code != 0 {
		t.Errorf("gate failed a run with unchanged curves/op: exit %d", code)
	}
}

func TestGateSpiralRegressionFails(t *testing.T) {
	// A trade pass that walks, inserts or offers more than it used to
	// multiplies these counts while ns/op can stay inside the bound on a
	// contended host: each step-4 work count must trip the gate on its own.
	for _, metric := range []string{"spiral/op", "desirables/op", "trades/op"} {
		base := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/48x48", NsPerOp: 1000, Runs: 5,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0, "spiral/op": 59860, "desirables/op": 57814, "trades/op": 31498}}}}
		cur := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/48x48", NsPerOp: 1150, Runs: 5,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0, "spiral/op": 59860, "desirables/op": 57814, "trades/op": 31498}}}}
		cur.Benchmarks[0].Metrics[metric] *= 12
		var log strings.Builder
		if code := gate(&log, base, cur, "BenchmarkReconfigure", 0.20); code != 1 {
			t.Errorf("gate passed a 12x %s regression: exit %d\n%s", metric, code, log.String())
		}
		if !strings.Contains(log.String(), metric+", ") || !strings.Contains(log.String(), "REGRESSION") {
			t.Errorf("gate log does not flag %s:\n%s", metric, log.String())
		}
		// The same run with the count restored passes.
		cur.Benchmarks[0].Metrics[metric] = base.Benchmarks[0].Metrics[metric]
		if code := gate(io.Discard, base, cur, "BenchmarkReconfigure", 0.20); code != 0 {
			t.Errorf("gate failed a run with unchanged %s: exit %d", metric, code)
		}
	}
}

func TestGateFootprintRegressionFails(t *testing.T) {
	// A center search that loses its lattice bound or its footprint plan
	// reads about 3x the bank claims (1,140,234 against 377,381 at 64x64)
	// while ns/op can stay inside the bound on a contended host: each
	// step-2 work count must trip the gate on its own.
	for _, metric := range []string{"centers/op", "footprint/op"} {
		base := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/64x64", NsPerOp: 1000, Runs: 5,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0, "centers/op": 87394, "footprint/op": 377381}}}}
		cur := &File{Benchmarks: []Benchmark{{Name: "BenchmarkReconfigure/64x64", NsPerOp: 1150, Runs: 5,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0, "centers/op": 87394, "footprint/op": 377381}}}}
		cur.Benchmarks[0].Metrics[metric] *= 3
		var log strings.Builder
		if code := gate(&log, base, cur, "BenchmarkReconfigure", 0.20); code != 1 {
			t.Errorf("gate passed a 3x %s regression: exit %d\n%s", metric, code, log.String())
		}
		if !strings.Contains(log.String(), metric+", ") || !strings.Contains(log.String(), "REGRESSION") {
			t.Errorf("gate log does not flag %s:\n%s", metric, log.String())
		}
		// The same run with the count restored passes.
		cur.Benchmarks[0].Metrics[metric] = base.Benchmarks[0].Metrics[metric]
		if code := gate(io.Discard, base, cur, "BenchmarkReconfigure", 0.20); code != 0 {
			t.Errorf("gate failed a run with unchanged %s: exit %d", metric, code)
		}
	}
}
