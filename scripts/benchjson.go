// Command benchjson converts `go test -bench` output to JSON and optionally
// gates on a committed baseline:
//
//	go test -bench=. -benchmem -run='^$' ./... | tee bench.out
//	go run ./scripts -in bench.out -out BENCH_campaign.json
//	go run ./scripts -in bench.out -out BENCH_campaign.json \
//	    -baseline BENCH_baseline.json -bench BenchmarkCampaignParallel -max-regress 0.20
//
// With -baseline, the exit status is non-zero if any benchmark matching
// -bench regressed by more than -max-regress relative to the baseline in
// ns/op or a gated metric: B/op, allocs/op and BenchmarkReconfigure's work
// counts (see gatedMetrics). A metric beyond ns/op is gated only when the
// baseline recorded it, so baselines captured without -benchmem still gate
// on time alone. Names are normalized by stripping the trailing
// -GOMAXPROCS suffix so runs from machines with different core counts still
// compare on their shared sub-benchmarks (e.g. j=1, j=2); sub-benchmarks
// present on only one side are reported and skipped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Runs is the iteration count (b.N).
	Runs int64 `json:"runs"`
	// NsPerOp is wall time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds the remaining value/unit pairs (B/op, allocs/op, custom
	// b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the JSON document benchjson reads and writes.
type File struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)
	procSufRe = regexp.MustCompile(`-\d+$`)
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in         = flag.String("in", "", "go test -bench output to parse (default stdin)")
		out        = flag.String("out", "", "write parsed benchmarks as JSON to this file (default stdout)")
		baseline   = flag.String("baseline", "", "baseline JSON to gate against (skip gating if empty)")
		bench      = flag.String("bench", "BenchmarkCampaignParallel", "benchmark name prefix the gate applies to")
		maxRegress = flag.Float64("max-regress", 0.20, "maximum tolerated ns/op regression vs baseline (0.20 = +20%)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: unexpected arguments: %v\n", flag.Args())
		return 2
	}

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		defer f.Close()
		src = f
	}
	parsed, err := parse(bufio.NewScanner(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(parsed.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		return 1
	}

	doc, err := json.MarshalIndent(parsed, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	doc = append(doc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
	} else {
		os.Stdout.Write(doc)
	}

	if *baseline == "" {
		return 0
	}
	base, err := readFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
		return 1
	}
	return gate(os.Stderr, base, parsed, *bench, *maxRegress)
}

// parse extracts benchmark lines and environment headers.
func parse(sc *bufio.Scanner) (*File, error) {
	out := &File{}
	seen := map[string]int{}
	pkg := ""
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		b := Benchmark{
			Name:    procSufRe.ReplaceAllString(m[1], ""),
			Pkg:     pkg,
			Runs:    runs,
			Metrics: map[string]float64{},
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %w", line, err)
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = v
			} else {
				b.Metrics[fields[i+1]] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		// -count=N repeats a benchmark; keep the best (minimum ns/op) run,
		// which is the least noisy stand-in for the benchmark's true cost.
		key := b.Pkg + "\x00" + b.Name
		if i, ok := seen[key]; ok {
			if b.NsPerOp < out.Benchmarks[i].NsPerOp {
				out.Benchmarks[i] = b
			}
			continue
		}
		seen[key] = len(out.Benchmarks)
		out.Benchmarks = append(out.Benchmarks, b)
	}
	return out, sc.Err()
}

// readFile loads a benchjson document.
func readFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// gatedMetrics are the per-benchmark metrics the gate checks beyond ns/op,
// when the baseline recorded them (a current run missing one fails).
// Keeping the allocation profile gated stops map-keyed reductions and
// per-call scratch from creeping back into the placement hot path
// unnoticed. knots/op and curves/op are BenchmarkReconfigure's
// deterministic step-1 work counts: the summed length of the per-VC cost
// curves, and the number of distinct curves built. They catch a lost early
// exit or lost curve sharing even when a busy host's timing noise hides it
// in ns/op. centers/op and footprint/op are its step-2 work counts:
// candidate centers whose footprint was summed, and bank claims those sums
// read. They catch a center search that scores candidates it could have
// skipped or walks past a bound it could have stopped at. spiral/op,
// desirables/op and trades/op are its step-4 work counts: banks the trade
// spirals visited, candidate banks they inserted, and moves they evaluated.
// They catch a trade pass that walks or offers more than it used to.
var gatedMetrics = []string{"B/op", "allocs/op", "knots/op", "curves/op", "centers/op", "footprint/op", "spiral/op", "desirables/op", "trades/op"}

// gate compares current against base for benchmarks matching the prefix and
// returns 1 if any shared sub-benchmark regressed beyond maxRegress in
// ns/op or in a gated metric both sides recorded. Diagnostics go to w.
func gate(w io.Writer, base, cur *File, prefix string, maxRegress float64) int {
	curByName := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var names []string
	for _, b := range base.Benchmarks {
		if strings.HasPrefix(b.Name, prefix) {
			names = append(names, b.Name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(w, "benchjson: baseline has no benchmarks matching %q\n", prefix)
		return 1
	}

	baseByName := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}

	// The reverse direction: a benchmark in the current run that matches the
	// gate prefix but has no baseline entry is not gated at all. That happens
	// silently when coverage grows (a new sub-benchmark or bench target) and
	// the baseline is not refreshed — warn loudly so ungated hot paths are
	// visible in the CI log instead of quietly unprotected.
	var ungated []string
	for _, b := range cur.Benchmarks {
		if strings.HasPrefix(b.Name, prefix) {
			if _, ok := baseByName[b.Name]; !ok {
				ungated = append(ungated, b.Name)
			}
		}
	}
	sort.Strings(ungated)
	for _, name := range ungated {
		fmt.Fprintf(w, "benchjson: WARNING: %-36s matches %q but has NO BASELINE entry — ungated; refresh the baseline\n", name, prefix)
	}

	failed, compared := 0, 0
	check := func(name, unit string, baseV, curV float64) {
		ratio := curV / baseV
		verdict := "ok"
		if ratio > 1+maxRegress {
			verdict = fmt.Sprintf("REGRESSION > %+.0f%%", maxRegress*100)
			failed++
		}
		fmt.Fprintf(w, "benchjson: %-45s base %14.0f %-9s now %14.0f (%+.1f%%) %s\n",
			name, baseV, unit+",", curV, (ratio-1)*100, verdict)
	}
	for _, name := range names {
		bb := baseByName[name]
		cb, ok := curByName[name]
		if !ok {
			// Core-count-specific variants (e.g. j=16) legitimately differ
			// across machines; report and move on.
			fmt.Fprintf(w, "benchjson: %-45s not in current run, skipped\n", name)
			continue
		}
		if bb.NsPerOp <= 0 {
			fmt.Fprintf(w, "benchjson: %-45s baseline has no ns/op, skipped\n", name)
			continue
		}
		compared++
		check(name, "ns/op", bb.NsPerOp, cb.NsPerOp)
		for _, metric := range gatedMetrics {
			baseV, okB := bb.Metrics[metric]
			curV, okC := cb.Metrics[metric]
			if !okB {
				continue // baseline predates -benchmem capture for this metric
			}
			if !okC {
				// The baseline gates this metric but the current run did not
				// record it — that disables the gate (e.g. -benchmem dropped
				// from the CI command), which must fail loudly, not warn.
				fmt.Fprintf(w, "benchjson: %-45s current run missing %s — run with -benchmem  FAIL\n", name, metric)
				failed++
				continue
			}
			if baseV == 0 {
				// An allocation-free baseline has no ratio to scale; any
				// nonzero value is a regression from zero.
				verdict := "ok"
				if curV > 0 {
					verdict = "REGRESSION from 0"
					failed++
				}
				fmt.Fprintf(w, "benchjson: %-45s base %14.0f %-9s now %14.0f %s\n",
					name, baseV, metric+",", curV, verdict)
				continue
			}
			check(name, metric, baseV, curV)
		}
	}
	if compared == 0 {
		fmt.Fprintf(w, "benchjson: no shared sub-benchmarks matching %q to compare\n", prefix)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(w, "benchjson: %d regressions beyond %.0f%% across %d gated benchmarks\n",
			failed, maxRegress*100, compared)
		return 1
	}
	fmt.Fprintf(w, "benchjson: all %d gated benchmarks within %.0f%% of baseline (ns/op, %s)\n",
		compared, maxRegress*100, strings.Join(gatedMetrics, ", "))
	return 0
}
