// Package sim orchestrates whole-chip simulations: epoch-level runs of a
// workload mix under a NUCA policy (weighted speedups, traffic, energy —
// Figs. 11-16), a protocol-level model of incremental reconfiguration on
// real cache banks (§IV-H), and the transient reconfiguration simulator
// behind Figs. 17 and 18.
package sim

import (
	"math"
	"math/rand"

	"cdcs/internal/perfmodel"
	"cdcs/internal/policy"
	"cdcs/internal/stats"
	"cdcs/internal/workload"
)

// MixResult summarizes one mix under one scheme.
type MixResult struct {
	// Scheme echoes the policy name.
	Scheme string
	// PerApp is each process's progress rate: IPC for single-threaded apps,
	// and the minimum member-thread IPC for multithreaded apps (barrier-
	// coupled OpenMP model; see DESIGN.md).
	PerApp []float64
	// Chip carries the converged performance-model output.
	Chip perfmodel.ChipResult
	// OnChipPKI / OffChipPKI are instruction-weighted mean latency cycles
	// per kilo-instruction (Fig. 11b/11c).
	OnChipPKI  float64
	OffChipPKI float64
	// Sched is the underlying schedule (placements, sizes, timings).
	Sched policy.Sched
}

// RunMixWith builds the schedule for a scheme and evaluates it. The rng
// drives random thread placement; pass a fresh seeded rng per (mix, scheme)
// for reproducibility. The per-epoch loops (campaign jobs, sweep cells) pass
// a pooled schedule arena so steady-state simulation performs no heap
// allocation per placement round; the returned result's Sched then borrows
// the arena's memory and stays valid only until the arena's next use —
// extract scalars before reusing it. A nil arena gives an independent
// result, bit-identical to one built on a warm arena.
func RunMixWith(env policy.Env, scheme policy.Scheme, mix *workload.Mix, rng *rand.Rand, ar *policy.Arena) (MixResult, error) {
	sched, err := policy.BuildWith(env, scheme, mix, rng, ar)
	if err != nil {
		return MixResult{}, err
	}
	chip := perfmodel.Evaluate(env.Params, sched.Inputs)

	out := MixResult{Scheme: sched.Name, Chip: chip, Sched: sched}
	out.PerApp = perAppProgress(mix, chip)

	var instr float64
	for i := range chip.Threads {
		w := chip.Threads[i].IPC
		out.OnChipPKI += w * chip.Threads[i].OnChipPKI
		out.OffChipPKI += w * chip.Threads[i].OffChipPKI
		instr += w
	}
	if instr > 0 {
		out.OnChipPKI /= instr
		out.OffChipPKI /= instr
	}
	return out, nil
}

// perAppProgress reduces thread IPCs to per-process progress rates.
func perAppProgress(mix *workload.Mix, chip perfmodel.ChipResult) []float64 {
	out := make([]float64, len(mix.Procs))
	for p, proc := range mix.Procs {
		if !proc.Multithreaded {
			out[p] = chip.Threads[proc.ThreadIDs[0]].IPC
			continue
		}
		// Barrier-coupled: the slowest thread sets the pace.
		min := math.Inf(1)
		for _, tid := range proc.ThreadIDs {
			if ipc := chip.Threads[tid].IPC; ipc < min {
				min = ipc
			}
		}
		out[p] = min
	}
	return out
}

// WeightedSpeedup compares a result against a baseline run of the same mix.
func WeightedSpeedup(res, base MixResult) float64 {
	return stats.WeightedSpeedup(res.PerApp, base.PerApp)
}

// CampaignResult aggregates one scheme across many mixes.
type CampaignResult struct {
	Scheme string
	// WS holds per-mix weighted speedups vs the campaign baseline.
	WS []float64
	// Gmean/Max summarize WS.
	Gmean float64
	Max   float64
	// Mean latency and traffic/energy across mixes, normalized later by the
	// harness (raw per-mix sums here).
	OnChipPKI  float64
	OffChipPKI float64
	Traffic    perfmodel.Traffic
	Energy     perfmodel.Energy
}

// RunCampaign evaluates schemes across mixes generated by genMix, using
// scheme[0] as the baseline (conventionally S-NUCA). Each (mix, scheme) run
// gets a deterministic rng derived from baseSeed.
//
// It runs on a default Engine (GOMAXPROCS workers); results are identical
// for any worker count. Use an explicit Engine for cancellation, progress
// reporting, or a specific parallelism.
func RunCampaign(env policy.Env, schemes []policy.Scheme, nMixes int, baseSeed int64, genMix func(*rand.Rand) *workload.Mix) ([]CampaignResult, error) {
	return Engine{}.RunCampaign(env, schemes, nMixes, baseSeed, genMix)
}
