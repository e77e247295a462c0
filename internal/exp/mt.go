package exp

import (
	"math/rand"

	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/workload"
)

func init() {
	register("fig15", runFig15)
	register("fig16", runFig16)
}

// runFig15 reproduces Fig. 15: 50 mixes of eight 8-thread SPEC OMP-like apps
// (64 threads) under the five schemes — weighted speedups and traffic.
func runFig15(opts Options) (*Report, error) {
	rep := newReport("fig15", "Multithreaded mixes: 8x 8-thread apps (Fig. 15)")
	env := policy.DefaultEnv()
	omp := workload.SPECOMP()
	res, err := opts.engine().RunCampaign(env, allSchemes(), opts.Mixes, opts.Seed, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomMT(rng, omp, 8)
	})
	if err != nil {
		return nil, err
	}
	reportCampaign(rep, res)
	return rep, nil
}

// runFig16 reproduces Fig. 16: under-committed multithreaded mixes (4x
// 8-thread apps on 64 cores) plus the mgrid/md/ilbdc/nab case study.
func runFig16(opts Options) (*Report, error) {
	rep := newReport("fig16", "Under-committed MT mixes: 4x 8-thread apps (Fig. 16)")
	env := policy.DefaultEnv()
	omp := workload.SPECOMP()
	res, err := opts.engine().RunCampaign(env, allSchemes(), opts.Mixes, opts.Seed, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomMT(rng, omp, 4)
	})
	if err != nil {
		return nil, err
	}
	reportCampaign(rep, res)

	// Case study (Fig. 16b): per-process thread spread under CDCS.
	mix := workload.Fig16CaseStudy()
	cdcsRes, err := sim.RunMixWith(env, policy.SchemeCDCS, mix, rand.New(rand.NewSource(opts.Seed)), nil)
	if err != nil {
		return nil, err
	}
	rep.addf("")
	rep.addf("case study (mgrid/md/ilbdc/nab) thread spreads under CDCS:")
	for _, proc := range mix.Procs {
		spread := meanPairwise(env, cdcsRes, proc.ThreadIDs)
		rep.addf("  %-8s mean pairwise distance %.2f hops", proc.Bench, spread)
		rep.Scalars["spread:"+proc.Bench] = spread
	}
	return rep, nil
}

// meanPairwise averages pairwise core distances among a process's threads.
func meanPairwise(env policy.Env, res sim.MixResult, ids []int) float64 {
	sum, n := 0.0, 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			sum += float64(env.Chip.Topo.Distance(res.Sched.ThreadCore[ids[i]], res.Sched.ThreadCore[ids[j]]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
