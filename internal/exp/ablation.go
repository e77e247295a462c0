package exp

import (
	"fmt"
	"math"
	"math/rand"

	"cdcs/internal/curves"
	"cdcs/internal/monitor"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/stats"
	"cdcs/internal/trace"
	"cdcs/internal/workload"
)

func init() {
	register("ablation-trades", runAblationTrades)
	register("ablation-gmon-ways", runAblationGMONWays)
	register("ablation-chunk", runAblationChunk)
	register("ext-numa", runExtNUMA)
	register("ext-monitor", runExtMonitor)
}

// runAblationTrades checks the paper's design choice that each VC trades
// only once per reconfiguration (§IV-F: "we have empirically found this
// discovers most trades"): it measures how much of the achievable trade gain
// additional rounds recover.
func runAblationTrades(opts Options) (*Report, error) {
	rep := newReport("ablation-trades", "Refined-placement trade rounds (§IV-F design choice)")
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	n := opts.Mixes
	if n > 10 {
		n = 10
	}
	rounds := []int{1, 2, 4, 8}
	// gains[k][m] is mix m's recovered latency under rounds[k]; each mix is
	// an independent engine job writing only its own column.
	gains := make([][]float64, len(rounds))
	for k := range gains {
		gains[k] = make([]float64, n)
	}
	if err := opts.engine().ForEach(n, func(m int) error {
		mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed+int64(m))), cpu, 64)
		s, err := policy.BuildWith(env, policy.SchemeCDCS, mix, nil, nil)
		if err != nil {
			return err
		}
		demands := cdcsDemands(mix, s)
		perm := rand.New(rand.NewSource(opts.Seed + 50 + int64(m))).Perm(env.Chip.Banks())
		threads := place.RandomThreads(env.Chip, len(mix.Threads), perm)
		base := place.GreedyIn(nil, env.Chip, demands, threads, env.Chip.BankLines/8)
		baseLat := place.OnChipLatency(env.Chip, demands, base, threads)
		for k, r := range rounds {
			a := base.Clone()
			place.RefineRounds(env.Chip, demands, a, threads, r)
			lat := place.OnChipLatency(env.Chip, demands, a, threads)
			gains[k][m] = baseLat - lat
		}
		return nil
	}); err != nil {
		return nil, err
	}
	full := stats.Mean(gains[len(rounds)-1])
	rep.addf("%8s %14s %12s", "rounds", "gain (acc-hop)", "of max gain")
	for k, r := range rounds {
		g := stats.Mean(gains[k])
		frac := 1.0
		if full > 0 {
			frac = g / full
		}
		rep.addf("%8d %14.0f %11.1f%%", r, g, frac*100)
		rep.Scalars[fmt.Sprintf("gainFrac:%d", r)] = frac
	}
	return rep, nil
}

// runAblationGMONWays sweeps GMON way counts: fidelity vs hardware cost
// around the paper's 64-way design point.
func runAblationGMONWays(opts Options) (*Report, error) {
	rep := newReport("ablation-gmon-ways", "GMON way-count sweep (§IV-G design choice)")
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	xs := omnet.MissRatio.Xs()
	ys := omnet.MissRatio.Ys()
	for i := range xs {
		xs[i] /= 8
	}
	target := curves.New(xs, ys)
	maxLines := target.MaxX()
	nAccess := 400000
	if opts.Quick {
		nAccess = 200000
	}
	wayCounts := []int{16, 32, 64, 128}
	type wayResult struct {
		rms   float64
		state int
	}
	// Each way count's GMON simulation is an independent engine job with
	// its own trace generator (all seeded opts.Seed, as before).
	results := make([]wayResult, len(wayCounts))
	if err := opts.engine().ForEach(len(wayCounts), func(k int) error {
		m := monitor.NewGMON(16, wayCounts[k], 128, maxLines)
		gen := trace.NewGenerator(target, 0, rand.New(rand.NewSource(opts.Seed)))
		for i := 0; i < nAccess; i++ {
			m.Access(gen.Next())
		}
		got := m.MissRatioCurve()
		var se float64
		probes := []float64{256, 1024, 4096, 16384, maxLines / 2, maxLines}
		for _, x := range probes {
			d := got.Eval(x) - target.Eval(x)
			se += d * d
		}
		results[k] = wayResult{math.Sqrt(se / float64(len(probes))), m.StateBytes()}
		return nil
	}); err != nil {
		return nil, err
	}
	rep.addf("%6s %10s %10s", "ways", "RMS err", "state B")
	for k, ways := range wayCounts {
		rep.addf("%6d %10.4f %10d", ways, results[k].rms, results[k].state)
		rep.Scalars[fmt.Sprintf("rms:%d", ways)] = results[k].rms
	}
	return rep, nil
}

// runAblationChunk sweeps the allocation/placement granularity from 1/64 of
// a bank to whole banks: the fine-vs-coarse trade the paper's Vantage
// partitioning enables.
func runAblationChunk(opts Options) (*Report, error) {
	rep := newReport("ablation-chunk", "Allocation granularity sweep (Vantage's value)")
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	divs := []float64{64, 8, 2, 1}
	n := opts.Mixes
	rep.addf("%12s %10s", "chunk", "gmean WS")
	for _, div := range divs {
		scheme := policy.SchemeCDCS
		scheme.BankGranular = div == 1
		scheme.Label = fmt.Sprintf("CDCS/chunk=bank/%g", div)
		res, err := opts.engine().RunCampaign(env,
			[]policy.Scheme{policy.SchemeSNUCA, scheme},
			n, opts.Seed, func(rng *rand.Rand) *workload.Mix {
				return workload.RandomST(rng, cpu, 64)
			})
		if err != nil {
			return nil, err
		}
		rep.addf("%12s %10.3f", fmt.Sprintf("bank/%g", div), res[1].Gmean)
		rep.Scalars[fmt.Sprintf("gmean:div%g", div)] = res[1].Gmean
	}
	return rep, nil
}

// runExtNUMA evaluates the paper's future-work extension: distance-dependent
// memory latency (Eq. 1 with per-bank controller distances). CDCS was not
// designed for it, but its locality should keep it ahead.
func runExtNUMA(opts Options) (*Report, error) {
	rep := newReport("ext-numa", "NUMA-aware memory latency extension (§III future work)")
	env := policy.DefaultEnv()
	env.Params.NUMAAware = true
	cpu := workload.SPECCPU()
	res, err := opts.engine().RunCampaign(env, allSchemes(), opts.Mixes, opts.Seed, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomST(rng, cpu, 64)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		rep.addf("%-10s gmean WS %.3f", r.Scheme, r.Gmean)
		rep.Scalars["gmean:"+r.Scheme] = r.Gmean
	}
	return rep, nil
}

// runExtMonitor closes the Fig. 4 loop: GMON-measured miss curves (from
// synthetic traces) replace true curves in the allocator, and the report
// compares the resulting allocations' quality.
func runExtMonitor(opts Options) (*Report, error) {
	rep := newReport("ext-monitor", "GMON-driven allocation vs true curves (Fig. 4 loop)")
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	nApps := 16
	accesses := 500000
	if opts.Quick {
		accesses = 250000
	}
	mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed)), cpu, nApps)

	// Each VC's GMON trace is an independent engine job.
	measured, err := opts.engine().MonitoredMix(mix, env.Chip.TotalLines(), accesses, opts.Seed)
	if err != nil {
		return nil, err
	}
	var curveErr float64
	for v := range mix.VCs {
		curveErr += sim.CurveError(measured[v], mix.VCs[v].MissRatio, env.Chip.TotalLines())
	}
	curveErr /= float64(len(mix.VCs))
	rep.Scalars["curveMAE"] = curveErr
	rep.addf("mean monitored-curve error: %.4f (miss-ratio MAE)", curveErr)

	// Allocate from true vs measured curves; evaluate both allocations
	// against the TRUE curves (what the hardware would experience).
	cost := func(curveOf func(int) curves.Curve) float64 {
		costs := make([]curves.Curve, len(mix.VCs))
		dist := allocCompactDist(env)
		for v := range mix.VCs {
			costs[v] = allocTotalCurve(env, curveOf(v), mix.VCs[v].TotalAPKI(), dist)
		}
		sizes := allocPeekahead(costs, env.Chip.TotalLines())
		total := 0.0
		for v, s := range sizes {
			apki := mix.VCs[v].TotalAPKI()
			total += apki * mix.VCs[v].MissRatio.Eval(s) * env.Model.MemLatency
		}
		return total
	}
	trueCost := cost(func(v int) curves.Curve { return mix.VCs[v].MissRatio })
	measCost := cost(func(v int) curves.Curve { return measured[v] })
	rel := measCost / trueCost
	rep.Scalars["measuredOverTrue"] = rel
	rep.addf("off-chip cost with GMON curves vs true curves: %.3fx", rel)
	return rep, nil
}
