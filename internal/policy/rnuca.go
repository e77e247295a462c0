package policy

import (
	"cdcs/internal/mesh"
	"cdcs/internal/workload"
)

// buildRNUCA models R-NUCA's class-based placement: thread-private data maps
// to the thread's local bank (zero network distance), and shared data is
// spread across the whole chip. Capacity is unmanaged — each bank is an
// LRU pool contended by its local thread's private data and an equal slice
// of all shared data — which is exactly why R-NUCA underperforms partitioned
// schemes on heterogeneous mixes (§II-B: omnet needs 2.5MB but only ever
// sees its 512KB local bank).
func buildRNUCA(ar *Arena, env Env, mix *workload.Mix, threads []mesh.Tile) (Sched, error) {
	nBanks := env.Chip.Banks()
	bankLines := env.Chip.BankLines

	// Private VC of the thread on each tile (at most one thread per core).
	privAt := make([]int, nBanks)
	for i := range privAt {
		privAt[i] = -1
	}
	for t := range mix.Threads {
		th := &mix.Threads[t]
		for k, v := range th.VCs {
			if mix.VCs[v].Kind == workload.ThreadPrivate && th.Rates[k] > 0 {
				privAt[threads[t]] = v
			}
		}
	}
	var sharedVCs []int
	for v := range mix.VCs {
		if mix.VCs[v].Kind == workload.ProcessShared {
			sharedVCs = append(sharedVCs, v)
		}
	}

	// Hoist per-VC intensities out of the fixed point (TotalAPKI re-sums
	// the accessor list on every call; the loops below would repeat it per
	// bank per iteration).
	apkiOf := make([]float64, len(mix.VCs))
	for v := range mix.VCs {
		apkiOf[v] = mix.VCs[v].TotalAPKI()
	}

	sizes := make([]float64, len(mix.VCs))
	ratios := make([]float64, len(mix.VCs))
	// Initial guess: private VCs get a bank, shared split the rest evenly.
	for b := 0; b < nBanks; b++ {
		if v := privAt[b]; v >= 0 {
			sizes[v] = bankLines
		}
	}
	for _, v := range sharedVCs {
		sizes[v] = bankLines * float64(nBanks) / float64(len(sharedVCs)+1)
	}

	// Global fixed point: each bank splits LRU-proportionally between its
	// local private stream and 1/N of every shared stream. sharedTotal is
	// indexed parallel to sharedVCs (it was a map keyed by VC id; reads were
	// already in sharedVCs order, so the dense form is value-identical).
	wShared := make([]float64, len(sharedVCs))
	sharedTotal := make([]float64, len(sharedVCs))
	for iter := 0; iter < 100; iter++ {
		for v := range mix.VCs {
			ratios[v] = mix.VCs[v].MissRatio.Eval(sizes[v])
		}
		for i := range sharedTotal {
			sharedTotal[i] = 0
		}
		// A shared stream's per-bank weight depends only on this
		// iteration's ratios, not on the bank.
		for i, v := range sharedVCs {
			wShared[i] = (apkiOf[v]*ratios[v] + 1e-3) / float64(nBanks)
		}
		maxDelta := 0.0
		for b := 0; b < nBanks; b++ {
			pv := privAt[b]
			wPriv := 0.0
			if pv >= 0 {
				wPriv = apkiOf[pv]*ratios[pv] + 1e-3
			}
			total := wPriv
			for _, w := range wShared {
				total += w
			}
			if total <= 0 {
				continue
			}
			if pv >= 0 {
				target := bankLines * wPriv / total
				if max := mix.VCs[pv].MissRatio.MaxX(); target > max {
					target = max
				}
				next := 0.5*sizes[pv] + 0.5*target
				if d := abs(next - sizes[pv]); d > maxDelta {
					maxDelta = d
				}
				sizes[pv] = next
			}
			for i := range sharedVCs {
				sharedTotal[i] += bankLines * wShared[i] / total
			}
		}
		for i, v := range sharedVCs {
			target := sharedTotal[i]
			if max := mix.VCs[v].MissRatio.MaxX(); target > max {
				target = max
			}
			next := 0.5*sizes[v] + 0.5*target
			if d := abs(next - sizes[v]); d > maxDelta {
				maxDelta = d
			}
			sizes[v] = next
		}
		if maxDelta < 1 {
			break
		}
	}
	for v := range mix.VCs {
		ratios[v] = mix.VCs[v].MissRatio.Eval(sizes[v])
	}

	// Distances: private data is local; shared data is uniformly spread
	// (means precomputed by the topology with identical arithmetic).
	topo := env.Chip.Topo
	sched := Sched{
		Name:       "R-NUCA",
		ThreadCore: threads,
		VCSizes:    sizes,
		VCRatios:   ratios,
	}
	sched.Inputs = buildInputs(ar, env, mix, ratios, func(t, v int) (float64, float64) {
		if mix.VCs[v].Kind == workload.ThreadPrivate {
			return 0, env.Chip.Topo.AvgMemDistance(threads[t])
		}
		return topo.MeanDistanceFrom(threads[t]), topo.MeanMemDistance()
	})
	return sched, nil
}
