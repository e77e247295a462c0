package policy

import (
	"math"
	"math/rand"
	"testing"

	"cdcs/internal/curves"
	"cdcs/internal/workload"
)

// perVCFixedPoint is the shared-LRU fixed point iterated VC by VC, with no
// grouping into classes: the reference sharedLRUFixedPoint must match bit
// for bit.
func perVCFixedPoint(vcs []workload.VC, include func(int) bool, capacity float64) (sizes, ratios []float64) {
	n := len(vcs)
	sizes = make([]float64, n)
	ratios = make([]float64, n)
	var active []int
	for v := range vcs {
		if include == nil || include(v) {
			active = append(active, v)
		}
	}
	if len(active) == 0 {
		return sizes, ratios
	}
	apki := make([]float64, len(active))
	for i, v := range active {
		apki[i] = vcs[v].TotalAPKI()
	}
	for _, v := range active {
		sizes[v] = capacity / float64(len(active))
	}
	ws := make([]float64, len(active))
	for iter := 0; iter < 100; iter++ {
		totalW := 0.0
		for i, v := range active {
			w := apki[i]*vcs[v].MissRatio.Eval(sizes[v]) + 1e-3
			ws[i] = w
			totalW += w
		}
		maxDelta := 0.0
		for i, v := range active {
			target := capacity * ws[i] / totalW
			if max := vcs[v].MissRatio.MaxX(); target > max {
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
	for _, v := range active {
		ratios[v] = vcs[v].MissRatio.Eval(sizes[v])
	}
	return sizes, ratios
}

func TestSharedLRUFixedPointMatchesPerVC(t *testing.T) {
	// Random single- and multithreaded mixes repeat profiles, so many VCs
	// share a curve and an access intensity. Evaluating each class once per
	// iteration must give every VC the size and ratio of the per-VC loop,
	// with and without an include filter.
	rng := rand.New(rand.NewSource(22))
	filters := map[string]func(int) bool{
		"all":  nil,
		"odd":  func(v int) bool { return v%2 == 1 },
		"none": func(int) bool { return false },
		"some": func(v int) bool { return v%7 != 3 && v%5 != 0 },
	}
	for trial := 0; trial < 24; trial++ {
		var mix *workload.Mix
		switch trial % 3 {
		case 0:
			mix = workload.RandomST(rng, workload.SPECCPU(), 1+rng.Intn(1024))
		case 1:
			mix = workload.RandomMT(rng, workload.SPECOMP(), 1+rng.Intn(8))
		default:
			mix = workload.CaseStudy()
		}
		if trial == 0 {
			// The grouping must be exercised, not just harmless.
			ids := map[curves.ID]bool{}
			for _, vc := range mix.VCs {
				ids[vc.MissRatio.ID()] = true
			}
			if len(ids) >= len(mix.VCs) {
				t.Fatalf("%d VCs with %d distinct curves: no class repeats", len(mix.VCs), len(ids))
			}
		}
		capacity := float64(64+rng.Intn(4096)) * 8192
		for name, include := range filters {
			gotS, gotR := sharedLRUFixedPoint(mix.VCs, include, capacity)
			wantS, wantR := perVCFixedPoint(mix.VCs, include, capacity)
			for v := range mix.VCs {
				if math.Float64bits(gotS[v]) != math.Float64bits(wantS[v]) || math.Float64bits(gotR[v]) != math.Float64bits(wantR[v]) {
					t.Fatalf("trial %d filter %s VC %d: size %v ratio %v, per-VC %v %v",
						trial, name, v, gotS[v], gotR[v], wantS[v], wantR[v])
				}
			}
		}
	}
}

// BenchmarkSharedLRUFixedPoint times the S-NUCA occupancy model on a
// 1024-app single-threaded mix (a 128×128 chip at one app per 16 tiles), by
// class and, for comparison, VC by VC.
func BenchmarkSharedLRUFixedPoint(b *testing.B) {
	mix := workload.RandomST(rand.New(rand.NewSource(1)), workload.SPECCPU(), 1024)
	capacity := float64(128*128) * 8192
	for _, impl := range []struct {
		name string
		fn   func([]workload.VC, func(int) bool, float64) ([]float64, []float64)
	}{{"classes", sharedLRUFixedPoint}, {"per-vc", perVCFixedPoint}} {
		b.Run(impl.name, func(b *testing.B) {
			for range b.N {
				impl.fn(mix.VCs, nil, capacity)
			}
		})
	}
}
