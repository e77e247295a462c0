package exp

import (
	"math"
	"math/rand"

	"cdcs/internal/core"
	"cdcs/internal/curves"
	"cdcs/internal/monitor"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/stats"
	"cdcs/internal/trace"
	"cdcs/internal/workload"
)

func init() {
	register("sec6c-ilp", runSec6CILP)
	register("sec6c-anneal", runSec6CAnneal)
	register("sec6c-graph", runSec6CGraph)
	register("sec6c-gmon", runSec6CGMON)
	register("sec6c-bank", runSec6CBank)
}

// cdcsDemands rebuilds the place.Demand view of a CDCS schedule.
func cdcsDemands(mix *workload.Mix, s policy.Sched) []place.Demand {
	return core.Demands(mix, s.VCSizes)
}

// runSec6CILP compares CDCS data placement against the exact transportation
// optimum (the paper's Gurobi ILP stand-in): the paper reports the optimum
// is only ~0.5% better at ~1000x the cost.
func runSec6CILP(opts Options) (*Report, error) {
	rep := newReport("sec6c-ilp", "CDCS vs optimal (ILP/MCMF) data placement (§VI-C)")
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	n := opts.Mixes
	if n > 10 {
		n = 10 // the exact solve is expensive; 10 mixes give a stable mean
	}
	// One engine job per mix; perMix[m] stays NaN when the optimum is
	// degenerate so the mean skips it (matching the sequential filter).
	perMix := make([]float64, n)
	if err := opts.engine().ForEach(n, func(m int) error {
		perMix[m] = math.NaN()
		mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed+int64(m))), cpu, 64)
		s, err := policy.BuildWith(env, policy.SchemeCDCS, mix, nil, nil)
		if err != nil {
			return err
		}
		demands := cdcsDemands(mix, s)
		cdcsLat := place.OnChipLatency(env.Chip, demands, s.Core.Assignment, s.ThreadCore)
		optAssign := place.OptimalTransport(env.Chip, demands, s.ThreadCore, env.Chip.BankLines/16)
		optLat := place.OnChipLatency(env.Chip, demands, optAssign, s.ThreadCore)
		if optLat > 0 {
			perMix[m] = cdcsLat / optLat
		}
		return nil
	}); err != nil {
		return nil, err
	}
	meanRel := stats.Mean(finite(perMix))
	rep.Scalars["cdcsOverOptimal"] = meanRel
	rep.addf("CDCS on-chip latency vs exact optimum: %.3fx (paper: optimal ~0.5%% better WS)", meanRel)
	return rep, nil
}

// runSec6CAnneal compares CDCS thread placement against 5000-round simulated
// annealing (paper: annealing is ~0.6% better at ~1000x the runtime).
func runSec6CAnneal(opts Options) (*Report, error) {
	rep := newReport("sec6c-anneal", "CDCS vs simulated-annealing thread placement (§VI-C)")
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	n := opts.Mixes
	if n > 10 {
		n = 10
	}
	perMix := make([]float64, n)
	if err := opts.engine().ForEach(n, func(m int) error {
		perMix[m] = math.NaN()
		mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed+int64(m))), cpu, 64)
		s, err := policy.BuildWith(env, policy.SchemeCDCS, mix, nil, nil)
		if err != nil {
			return err
		}
		demands := cdcsDemands(mix, s)
		cdcsLat := place.OnChipLatency(env.Chip, demands, s.Core.Assignment, s.ThreadCore)
		_, annealLat := place.AnnealThreads(env.Chip, demands, s.Core.Assignment, s.ThreadCore,
			5000, rand.New(rand.NewSource(opts.Seed+100+int64(m))))
		if annealLat > 0 {
			perMix[m] = cdcsLat / annealLat
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rels := finite(perMix)
	rep.Scalars["cdcsOverAnneal"] = stats.Mean(rels)
	rep.addf("CDCS on-chip latency vs annealed threads: %.3fx (paper: annealing ~0.6%% better)", stats.Mean(rels))
	return rep, nil
}

// runSec6CGraph compares CDCS against recursive-bisection graph partitioning
// for thread placement (paper: graph partitioning is ~2.5% worse net
// latency because it splits around the chip center).
func runSec6CGraph(opts Options) (*Report, error) {
	rep := newReport("sec6c-graph", "CDCS vs graph-partitioned thread placement (§VI-C)")
	env := policy.DefaultEnv()
	omp := workload.SPECOMP()
	n := opts.Mixes
	if n > 10 {
		n = 10
	}
	perMix := make([]float64, n)
	if err := opts.engine().ForEach(n, func(m int) error {
		perMix[m] = math.NaN()
		mix := workload.RandomMT(rand.New(rand.NewSource(opts.Seed+int64(m))), omp, 8)
		s, err := policy.BuildWith(env, policy.SchemeCDCS, mix, nil, nil)
		if err != nil {
			return err
		}
		demands := cdcsDemands(mix, s)
		cdcsLat := place.OnChipLatency(env.Chip, demands, s.Core.Assignment, s.ThreadCore)

		gpThreads := place.GraphPartition(env.Chip, demands, len(mix.Threads))
		gpAssign := place.GreedyIn(nil, env.Chip, demands, gpThreads, env.Chip.BankLines/16)
		place.RefineIn(nil, env.Chip, demands, gpAssign, gpThreads)
		gpLat := place.OnChipLatency(env.Chip, demands, gpAssign, gpThreads)
		if cdcsLat > 0 {
			perMix[m] = gpLat / cdcsLat
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rels := finite(perMix)
	rep.Scalars["graphOverCDCS"] = stats.Mean(rels)
	rep.addf("graph-partitioned net latency vs CDCS: %.3fx (paper: +2.5%%)", stats.Mean(rels))
	return rep, nil
}

// runSec6CGMON compares monitor designs: a 64-way GMON against UMONs of
// several way counts, measuring miss-curve reconstruction error over the
// full 64KB-32MB range (paper: 64-way GMONs match 256-way UMONs; 64-way
// UMONs lose ~3% performance).
func runSec6CGMON(opts Options) (*Report, error) {
	rep := newReport("sec6c-gmon", "GMON vs UMON miss-curve fidelity (§VI-C)")
	// Ground truth: an omnet-like curve over the full LLC domain, scaled to
	// a tractable exact-LRU region (1/8 of 32MB).
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	xs := omnet.MissRatio.Xs()
	ys := omnet.MissRatio.Ys()
	for i := range xs {
		xs[i] /= 8
	}
	target := curves.New(xs, ys)
	maxLines := target.MaxX()

	nAccess := 600000
	if opts.Quick {
		nAccess = 250000
	}
	monitors := []struct {
		name string
		m    *monitor.Monitor
	}{
		{"GMON-64w", monitor.NewGMON(16, 64, 128, maxLines)},
		{"UMON-64w", monitor.NewUMON(16, 64, maxLines)},
		{"UMON-256w", monitor.NewUMON(16, 256, maxLines)},
		{"UMON-512w", monitor.NewUMON(16, 512, maxLines)},
	}
	probes := []float64{256, 1024, 4096, 16384, maxLines / 2, maxLines}
	// Each monitor design replays its own trace (same seed, as before): one
	// engine job apiece.
	rms := make([]float64, len(monitors))
	if err := opts.engine().ForEach(len(monitors), func(k int) error {
		mo := monitors[k]
		gen := trace.NewGenerator(target, 0, rand.New(rand.NewSource(opts.Seed)))
		for i := 0; i < nAccess; i++ {
			mo.m.Access(gen.Next())
		}
		got := mo.m.MissRatioCurve()
		var se float64
		for _, x := range probes {
			d := got.Eval(x) - target.Eval(x)
			se += d * d
		}
		rms[k] = math.Sqrt(se / float64(len(probes)))
		return nil
	}); err != nil {
		return nil, err
	}
	rep.addf("%-10s %10s %10s", "monitor", "RMS err", "state KB")
	for k, mo := range monitors {
		kb := float64(mo.m.StateBytes()) / 1024
		rep.addf("%-10s %10.4f %10.2f", mo.name, rms[k], kb)
		rep.Scalars["rms:"+mo.name] = rms[k]
		rep.Scalars["kb:"+mo.name] = kb
	}
	return rep, nil
}

// runSec6CBank evaluates CDCS at whole-bank allocation granularity (the
// §VI-C partitioning-free configuration: 36% vs 46% gmean WS in the paper).
func runSec6CBank(opts Options) (*Report, error) {
	rep := newReport("sec6c-bank", "CDCS with whole-bank allocations (§VI-C)")
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	coarse := policy.SchemeCDCS
	coarse.BankGranular = true
	coarse.Label = "CDCS-bank"
	schemes := []policy.Scheme{policy.SchemeSNUCA, coarse, policy.SchemeCDCS}
	res, err := opts.engine().RunCampaign(env, schemes, opts.Mixes, opts.Seed, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomST(rng, cpu, 64)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range res[1:] {
		rep.addf("%-10s gmean WS %.3f (max %.3f)", r.Scheme, r.Gmean, r.Max)
		rep.Scalars["gmean:"+r.Scheme] = r.Gmean
	}
	return rep, nil
}
