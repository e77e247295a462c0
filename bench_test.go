package cdcs

// One benchmark per table and figure in the paper's evaluation. Each bench
// regenerates its experiment at reduced mix counts (QuickOptions) and
// reports the experiment's headline scalars as custom metrics, so
// `go test -bench=. -benchmem` reproduces the whole evaluation and prints
// the numbers EXPERIMENTS.md records against the paper.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cdcs/internal/exp"
	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/workload"
)

// runExp executes an experiment once per benchmark iteration and reports
// the selected scalars.
func runExp(b *testing.B, id string, metrics ...string) {
	b.Helper()
	opts := exp.QuickOptions()
	var rep *exp.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = exp.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Scalars[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkTable1CaseStudy(b *testing.B) {
	runExp(b, "table1", "ws:CDCS", "ws:Jigsaw+R", "omnet:CDCS")
}

func BenchmarkFig1PlacementMaps(b *testing.B) {
	runExp(b, "fig1", "omnetHops:Jigsaw+C", "omnetHops:CDCS")
}

func BenchmarkFig2MissCurves(b *testing.B) {
	runExp(b, "fig2", "omnet@1MB", "omnet@3MB")
}

func BenchmarkFig5LatencyCurve(b *testing.B) {
	runExp(b, "fig5", "sweetSpotMB")
}

func BenchmarkFig11WeightedSpeedup(b *testing.B) {
	runExp(b, "fig11", "gmean:CDCS", "gmean:Jigsaw+R", "gmean:R-NUCA", "energy:CDCS")
}

func BenchmarkFig12FactorAnalysis(b *testing.B) {
	runExp(b, "fig12", "gmean:+LTD:64", "gmean:+L:4")
}

func BenchmarkFig13Undercommitted(b *testing.B) {
	runExp(b, "fig13", "gmean:CDCS:4", "gmean:Jigsaw+C:4")
}

func BenchmarkFig14FourApps(b *testing.B) {
	runExp(b, "fig14", "gmean:CDCS", "gmean:Jigsaw+C")
}

func BenchmarkFig15Multithreaded(b *testing.B) {
	runExp(b, "fig15", "gmean:CDCS", "gmean:Jigsaw+C", "gmean:Jigsaw+R")
}

func BenchmarkFig16UndercommittedMT(b *testing.B) {
	runExp(b, "fig16", "gmean:CDCS", "spread:mgrid", "spread:ilbdc")
}

func BenchmarkFig17ReconfigTrace(b *testing.B) {
	runExp(b, "fig17", "penalty:background-invs", "penalty:bulk-invs")
}

func BenchmarkFig18ReconfigPeriod(b *testing.B) {
	runExp(b, "fig18", "steadyWS")
}

func BenchmarkTable3RuntimeOverheads(b *testing.B) {
	runExp(b, "table3", "totalMcyc:64/64", "overheadPct:64/64")
}

func BenchmarkSec6COptimalPlacement(b *testing.B) {
	runExp(b, "sec6c-ilp", "cdcsOverOptimal")
}

func BenchmarkSec6CAnnealing(b *testing.B) {
	runExp(b, "sec6c-anneal", "cdcsOverAnneal")
}

func BenchmarkSec6CGraphPartition(b *testing.B) {
	runExp(b, "sec6c-graph", "graphOverCDCS")
}

func BenchmarkSec6CMonitors(b *testing.B) {
	runExp(b, "sec6c-gmon", "rms:GMON-64w", "rms:UMON-64w", "rms:UMON-512w")
}

func BenchmarkSec6CBankPartitioned(b *testing.B) {
	runExp(b, "sec6c-bank", "gmean:CDCS-bank", "gmean:CDCS")
}

// Ablations and extensions beyond the paper's figures.

func BenchmarkAblationTradeRounds(b *testing.B) {
	runExp(b, "ablation-trades", "gainFrac:1")
}

func BenchmarkAblationGMONWays(b *testing.B) {
	runExp(b, "ablation-gmon-ways", "rms:64", "rms:16")
}

func BenchmarkAblationChunkGranularity(b *testing.B) {
	runExp(b, "ablation-chunk", "gmean:div64", "gmean:div1")
}

func BenchmarkExtNUMAAwareLatency(b *testing.B) {
	runExp(b, "ext-numa", "gmean:CDCS")
}

func BenchmarkExtMonitorClosedLoop(b *testing.B) {
	runExp(b, "ext-monitor", "curveMAE", "measuredOverTrue")
}

func BenchmarkExtNoCValidation(b *testing.B) {
	runExp(b, "ext-noc", "queueing:CDCS", "queueing:S-NUCA")
}

func BenchmarkExtPhasedWorkloads(b *testing.B) {
	runExp(b, "ext-phases", "adaptGain")
}

func BenchmarkExtHWSimValidation(b *testing.B) {
	runExp(b, "ext-hwsim", "meanErr", "maxErr")
}

func BenchmarkExtScaling(b *testing.B) {
	runExp(b, "ext-scaling", "cdcs:16", "cdcs:144")
}

// BenchmarkCampaignParallel sweeps the engine's worker count on a fixed
// Fig. 11-style campaign so the parallel speedup is tracked in the perf
// trajectory. Results are bit-identical across the sub-benchmarks; only the
// wall clock should change.
func BenchmarkCampaignParallel(b *testing.B) {
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	schemes := []policy.Scheme{
		policy.SchemeSNUCA, policy.SchemeJigsawR, policy.SchemeCDCS,
	}
	workers := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("j=%d", w), func(b *testing.B) {
			eng := sim.Engine{Parallelism: w}
			var gmean float64
			for i := 0; i < b.N; i++ {
				res, err := eng.RunCampaign(env, schemes, 8, 1, func(rng *rand.Rand) *workload.Mix {
					return workload.RandomST(rng, cpu, 64)
				})
				if err != nil {
					b.Fatal(err)
				}
				gmean = res[len(res)-1].Gmean
			}
			b.ReportMetric(gmean, "gmeanWS:CDCS")
		})
	}
}

// Microbenchmarks of the hot reconfiguration path (Table 3's components).

func BenchmarkReconfigure64Apps(b *testing.B) {
	sys := DefaultSystem()
	mix, err := RandomMix(1, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(CDCS, mix, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineSNUCA64Apps(b *testing.B) {
	sys := DefaultSystem()
	mix, err := RandomMix(1, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(SNUCA, mix, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedCell times cold served cells the way cdcs-serve computes
// them: CompareRequest.Run with Parallelism 1, one scheme after another on
// the process's arena cache and shared topologies. One op of "paper" is
// the paper-cold cycle of four 8×8 cells under all five schemes (three
// 64-app single-threaded mixes, then an 8-app multithreaded one); one op
// of "kilotile" is the kilotile-cold cycle of S-NUCA against CDCS at 32,
// 48, 64, 96 and 128 tiles on a side, one app per 16 tiles. A warm-up op
// runs before the timer, as a serving process has served cells before.
func BenchmarkServedCell(b *testing.B) {
	paper := make([]CompareRequest, 4)
	for i := range paper {
		paper[i] = CompareRequest{Mix: MixSpec{Kind: MixRandom, Seed: int64(i + 1), N: 64}, Seed: 1}
	}
	paper[3].Mix = MixSpec{Kind: MixRandomMT, Seed: 4, N: 8}
	var kilotile []CompareRequest
	for _, side := range []int{32, 48, 64, 96, 128} {
		cfg := DefaultConfig()
		cfg.MeshWidth, cfg.MeshHeight = side, side
		kilotile = append(kilotile, CompareRequest{
			Config:  &cfg,
			Mix:     MixSpec{Kind: MixRandom, Seed: int64(side), N: side * side / 16},
			Schemes: []string{"S-NUCA", "CDCS"},
			Seed:    1,
		})
	}
	for _, bc := range []struct {
		name  string
		cells []CompareRequest
	}{{"paper", paper}, {"kilotile", kilotile}} {
		b.Run(bc.name, func(b *testing.B) {
			serve := func() {
				for _, req := range bc.cells {
					cmp, err := req.Run(RunOptions{Parallelism: 1})
					if err != nil {
						b.Fatal(err)
					}
					servedSink = cmp
				}
			}
			serve()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// servedSink keeps BenchmarkServedCell's results observable.
var servedSink *Comparison
