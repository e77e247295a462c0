package exp

import (
	"math/rand"

	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/workload"
)

func init() {
	register("fig17", runFig17)
	register("fig18", runFig18)
}

// reconfigParamsFromCampaign derives the transient-model inputs from an
// actual CDCS run (steady IPC, APKI, hit ratio) so Figs. 17-18 share state
// with the epoch simulations.
func reconfigParamsFromCampaign(opts Options) (sim.ReconfigParams, float64, error) {
	env := policy.DefaultEnv()
	mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed)), workload.SPECCPU(), 64)
	// The S-NUCA baseline and the CDCS run are independent engine jobs.
	schemes := []policy.Scheme{policy.SchemeSNUCA, policy.SchemeCDCS}
	runs := make([]sim.MixResult, len(schemes))
	if err := opts.engine().ForEach(len(schemes), func(i int) error {
		r, err := sim.RunMixWith(env, schemes[i], mix, rand.New(rand.NewSource(opts.Seed+1+int64(i))), nil)
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	}); err != nil {
		return sim.ReconfigParams{}, 0, err
	}
	base, res := runs[0], runs[1]
	p := sim.DefaultReconfigParams()
	p.Cores = env.Chip.Banks()
	p.SteadyIPC = res.Chip.AggIPC / float64(p.Cores)
	var apki, mpki float64
	for _, t := range res.Chip.Threads {
		apki += t.APKI
		mpki += t.MPKI
	}
	apki /= float64(len(res.Chip.Threads))
	mpki /= float64(len(res.Chip.Threads))
	p.APKI = apki
	if apki > 0 {
		p.HitRatio = 1 - mpki/apki
	}
	p.MemLatency = res.Chip.MemLatency
	return p, sim.WeightedSpeedup(res, base), nil
}

// runFig17 reproduces Fig. 17: the aggregate-IPC trace through one
// reconfiguration under instant moves, background invalidations (CDCS) and
// bulk invalidations (Jigsaw).
func runFig17(opts Options) (*Report, error) {
	rep := newReport("fig17", "IPC during one reconfiguration (Fig. 17)")
	p, _, err := reconfigParamsFromCampaign(opts)
	if err != nil {
		return nil, err
	}
	const window, at, bucket = 2e6, 2e5, 5e4
	schemes := []sim.MoveScheme{sim.InstantMoves, sim.BackgroundInvs, sim.BulkInvs}
	traces := make([][]sim.IPCPoint, len(schemes))
	// The transient model is closed-form arithmetic (~40 points per scheme):
	// not worth a fan-out.
	for i, s := range schemes {
		traces[i] = sim.SimulateReconfig(p, s, window, at, bucket)
		key := "ipc:" + s.String()
		for _, pt := range traces[i] {
			rep.Series[key] = append(rep.Series[key], pt.AggIPC)
		}
	}
	rep.addf("%10s %10s %12s %10s", "Kcycle", "instant", "background", "bulk")
	for j := range traces[0] {
		rep.addf("%10.0f %10.1f %12.1f %10.1f",
			traces[0][j].Cycle/1000, traces[0][j].AggIPC, traces[1][j].AggIPC, traces[2][j].AggIPC)
	}
	for i, s := range schemes {
		_ = i
		rep.Scalars["penalty:"+s.String()] = sim.ReconfigPenalty(p, s)
	}
	rep.addf("per-reconfig lost cycles/core: instant %.0f, background %.0f, bulk %.0f",
		rep.Scalars["penalty:instant-moves"], rep.Scalars["penalty:background-invs"], rep.Scalars["penalty:bulk-invs"])
	return rep, nil
}

// runFig18 reproduces Fig. 18: weighted speedup of 64-app mixes vs
// reconfiguration period for the three movement schemes.
func runFig18(opts Options) (*Report, error) {
	rep := newReport("fig18", "Weighted speedup vs reconfiguration period (Fig. 18)")
	p, steadyWS, err := reconfigParamsFromCampaign(opts)
	if err != nil {
		return nil, err
	}
	rep.Scalars["steadyWS"] = steadyWS
	periods := []float64{10e6, 25e6, 50e6, 100e6}
	rep.addf("%10s %10s %12s %10s", "period(M)", "instant", "background", "bulk")
	for _, period := range periods {
		inst := sim.EffectiveWS(steadyWS, p, sim.InstantMoves, period)
		bg := sim.EffectiveWS(steadyWS, p, sim.BackgroundInvs, period)
		bulk := sim.EffectiveWS(steadyWS, p, sim.BulkInvs, period)
		rep.addf("%10.0f %10.3f %12.3f %10.3f", period/1e6, inst, bg, bulk)
		rep.Series["instant"] = append(rep.Series["instant"], inst)
		rep.Series["background"] = append(rep.Series["background"], bg)
		rep.Series["bulk"] = append(rep.Series["bulk"], bulk)
	}
	return rep, nil
}
