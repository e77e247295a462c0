package policy

import (
	"math"

	"cdcs/internal/curves"
	"cdcs/internal/mesh"
	"cdcs/internal/workload"
)

// buildSNUCA models a static NUCA: every VC's lines are spread over all
// banks by the line-bank hash, so every access travels the mean core-to-bank
// distance, and all VCs contend for the whole LLC under shared LRU. The mean
// distances come precomputed from the topology (identical arithmetic, done
// once per mesh instead of once per build).
func buildSNUCA(ar *Arena, env Env, mix *workload.Mix, threads []mesh.Tile) (Sched, error) {
	sizes, ratios := sharedLRUFixedPoint(mix.VCs, nil, env.Chip.TotalLines())

	topo := env.Chip.Topo
	sched := Sched{
		Name:       "S-NUCA",
		ThreadCore: threads,
		VCSizes:    sizes,
		VCRatios:   ratios,
	}
	sched.Inputs = buildInputs(ar, env, mix, ratios, func(t, v int) (float64, float64) {
		return topo.MeanDistanceFrom(threads[t]), topo.MeanMemDistance()
	})
	return sched, nil
}

// sharedLRUFixedPoint models VCs contending for a shared LRU pool of
// capacity lines: steady-state occupancy is proportional to insertion rate
// (miss rate × access intensity), which is the classic shared-cache
// occupancy model. restrict optionally limits which VCs participate (nil =
// all); excluded VCs get zero. Returns per-VC sizes and effective ratios.
//
// VCs with the same miss curve (by storage identity) and the same access
// intensity start from the same size and receive the same update every
// iteration, so the iteration runs once per such class. The total
// insertion rate is still summed over the VCs in VC order, so every size
// and ratio is bit-identical to iterating VC by VC.
func sharedLRUFixedPoint(vcs []workload.VC, include func(int) bool, capacity float64) (sizes, ratios []float64) {
	n := len(vcs)
	sizes = make([]float64, n)
	ratios = make([]float64, n)
	type classKey struct {
		curve curves.ID
		apki  uint64
	}
	type class struct {
		vc                   int // the first member, whose curve the class evaluates
		apki, size, w, ratio float64
	}
	type member struct{ vc, class int }
	var classes []class
	index := map[classKey]int{}
	var active []member // the participating VCs, in VC order
	for v := range vcs {
		if include != nil && !include(v) {
			continue
		}
		// TotalAPKI re-sums the accessor list, so it is read once per VC,
		// not once per iteration.
		apki := vcs[v].TotalAPKI()
		key := classKey{vcs[v].MissRatio.ID(), math.Float64bits(apki)}
		c, ok := index[key]
		if !ok {
			c = len(classes)
			index[key] = c
			classes = append(classes, class{vc: v, apki: apki})
		}
		active = append(active, member{v, c})
	}
	if len(active) == 0 {
		return sizes, ratios
	}
	// Start from an equal split; iterate occupancy ∝ insertion rate.
	for c := range classes {
		classes[c].size = capacity / float64(len(active))
	}
	for iter := 0; iter < 100; iter++ {
		for c := range classes {
			cl := &classes[c]
			r := vcs[cl.vc].MissRatio.Eval(cl.size)
			// Small floor keeps fully-fitting VCs resident (they still own
			// their working set even with near-zero insertions).
			cl.w = cl.apki*r + 1e-3
		}
		totalW := 0.0
		for _, m := range active {
			totalW += classes[m.class].w
		}
		maxDelta := 0.0
		for c := range classes {
			cl := &classes[c]
			target := capacity * cl.w / totalW
			// A VC never needs more than its curve domain.
			if max := vcs[cl.vc].MissRatio.MaxX(); target > max {
				target = max
			}
			next := 0.5*cl.size + 0.5*target
			if d := abs(next - cl.size); d > maxDelta {
				maxDelta = d
			}
			cl.size = next
		}
		if maxDelta < 1 {
			break
		}
	}
	for c := range classes {
		cl := &classes[c]
		cl.ratio = vcs[cl.vc].MissRatio.Eval(cl.size)
	}
	for _, m := range active {
		sizes[m.vc], ratios[m.vc] = classes[m.class].size, classes[m.class].ratio
	}
	return sizes, ratios
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
