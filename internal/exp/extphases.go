package exp

import (
	"cdcs/internal/core"
	"cdcs/internal/mesh"
	"cdcs/internal/perfmodel"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/stats"
	"cdcs/internal/workload"
)

func init() {
	register("ext-phases", runExtPhases)
}

// runExtPhases explores the §VI-C caveat that stable SPEC phases understate
// reconfiguration costs: phased applications change working sets every few
// epochs, and the experiment compares (a) reconfiguring every epoch with
// CDCS's background invalidations, (b) reconfiguring with Jigsaw's bulk
// invalidations, and (c) configuring once and never adapting. Adaptation
// must beat the static schedule, and cheap moves must beat bulk moves.
func runExtPhases(opts Options) (*Report, error) {
	rep := newReport("ext-phases", "Phased workloads: adaptation vs reconfiguration cost")
	env := policy.DefaultEnv()
	apps := phasedApps()
	epochs := 12
	if opts.Quick {
		epochs = 8
	}
	const epochCycles = 50e6 // 25ms at 2GHz

	// Reconfiguration penalties (lost cycles per core per reconfiguration).
	rp := sim.DefaultReconfigParams()
	bgPenalty := sim.ReconfigPenalty(rp, sim.BackgroundInvs) / epochCycles
	bulkPenalty := sim.ReconfigPenalty(rp, sim.BulkInvs) / epochCycles

	// Pass 1: each epoch's mix materialization, reconfiguration and adaptive
	// evaluation is an independent engine job.
	mixes := make([]*workload.Mix, epochs)
	epochRes := make([]core.Result, epochs)
	adaptiveIPC := make([]float64, epochs)
	if err := opts.engine().ForEach(epochs, func(e int) error {
		mixes[e] = mixAtEpoch(apps, e)
		cfg := core.Config{Chip: env.Chip, Model: env.Model, Feats: core.AllCDCS()}
		res, err := core.ReconfigureWith(cfg, mixes[e], nil, nil)
		if err != nil {
			return err
		}
		epochRes[e] = res
		adaptiveIPC[e] = evalSchedule(env, mixes[e], res)
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 2: the static schedule is epoch 0's reconfiguration evaluated
	// against every later phase (needs pass 1's first result). evalSchedule
	// is a cheap in-memory model evaluation, so no fan-out.
	staticRes := epochRes[0]
	staticIPC := make([]float64, epochs)
	for e := range staticIPC {
		staticIPC[e] = evalSchedule(env, mixes[e], staticRes)
	}

	bgIPC := make([]float64, epochs)
	bulkIPC := make([]float64, epochs)
	oracleIPC := make([]float64, epochs)
	for e := 0; e < epochs; e++ {
		bgIPC[e] = adaptiveIPC[e] * (1 - bgPenalty)
		bulkIPC[e] = adaptiveIPC[e] * (1 - bulkPenalty)
		oracleIPC[e] = adaptiveIPC[e]
	}

	report := func(name string, xs []float64) float64 {
		m := stats.Mean(xs)
		rep.addf("%-22s mean aggregate IPC %.2f", name, m)
		rep.Scalars["ipc:"+name] = m
		return m
	}
	report("oracle(free moves)", oracleIPC)
	report("adaptive+background", bgIPC)
	report("adaptive+bulk", bulkIPC)
	report("static(no adaptation)", staticIPC)
	rep.Scalars["adaptGain"] = stats.Mean(bgIPC) / stats.Mean(staticIPC)
	rep.addf("adaptation gain over static: %.3fx", rep.Scalars["adaptGain"])
	return rep, nil
}

// phasedApps builds the phased working set: 16 apps (4 of each phased
// profile) so phase changes shift multi-MB allocations every few epochs.
func phasedApps() []*workload.PhasedProfile {
	set := workload.PhasedSet()
	out := make([]*workload.PhasedProfile, 0, 16)
	for i := 0; i < 4; i++ {
		out = append(out, set...)
	}
	return out
}

// mixAtEpoch materializes the mix for one epoch (same shape every epoch:
// VC/thread ids line up across epochs, only curves and intensities change).
func mixAtEpoch(apps []*workload.PhasedProfile, epoch int) *workload.Mix {
	m := workload.NewMix()
	for _, a := range apps {
		m.AddST(a.At(epoch))
	}
	return m
}

// evalSchedule evaluates an existing reconfiguration result against a mix's
// current curves (the static schedule keeps epoch-0 sizes and placements but
// experiences the current phase's miss ratios and intensities).
func evalSchedule(env policy.Env, mix *workload.Mix, res core.Result) float64 {
	inputs := make([]perfmodel.ThreadInput, len(mix.Threads))
	for t := range mix.Threads {
		th := &mix.Threads[t]
		in := perfmodel.ThreadInput{CPIBase: th.CPIBase, MLP: th.MLP}
		corePos := res.ThreadCore[t]
		for k, v := range th.VCs {
			size := res.VCSizes[v]
			ratio := mix.VCs[v].MissRatio.Eval(size)
			hops, memHops := resultHops(env, &res.Assignment[v], size, corePos)
			in.Accesses = append(in.Accesses, perfmodel.VCAccess{
				APKI: th.Rates[k], MissRatio: ratio, AvgHops: hops, MemHops: memHops,
			})
		}
		inputs[t] = in
	}
	return perfmodel.Evaluate(env.Params, inputs).AggIPC
}

// resultHops mirrors the policy package's assignment-distance computation:
// the dense bank index iterates in ascending bank order, so the float sums
// are reproducible without sorting.
func resultHops(env policy.Env, alloc *place.BankAlloc, size float64, corePos mesh.Tile) (float64, float64) {
	if size <= 0 || alloc.Len() == 0 {
		return 0, env.Chip.Topo.AvgMemDistance(corePos)
	}
	var hops, memHops float64
	for i := 0; i < alloc.Len(); i++ {
		b, l := alloc.At(i)
		frac := l / size
		hops += frac * float64(env.Chip.Topo.Distance(corePos, b))
		memHops += frac * env.Chip.Topo.AvgMemDistance(b)
	}
	return hops, memHops
}
