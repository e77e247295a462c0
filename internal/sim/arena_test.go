package sim

import (
	"math/rand"
	"testing"

	"cdcs/internal/policy"
	"cdcs/internal/workload"
)

// TestRunMixArenaBitIdentical asserts the arena-pooled hot path changes no
// result bits: for every scheme, running a mix through one arena reused
// across runs produces exactly the per-app progress rates — and therefore
// exactly the weighted speedups — of independent nil-arena runs. This is
// the sim-level half of the dense-representation bit-identity property (the
// placement-level half is TestDenseMatchesMapReference in internal/place).
func TestRunMixArenaBitIdentical(t *testing.T) {
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	omp := workload.SPECOMP()
	mixes := []*workload.Mix{
		workload.RandomST(rand.New(rand.NewSource(11)), cpu, 64),
		workload.RandomMT(rand.New(rand.NewSource(12)), omp, 8),
	}
	schemes := []policy.Scheme{
		policy.SchemeSNUCA, policy.SchemeRNUCA,
		policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS,
	}
	ar := policy.NewArena() // deliberately shared across every run below
	for mi, mix := range mixes {
		var basePerApp, baseArPerApp [][]float64
		for si, sc := range schemes {
			seed := int64(100 + 10*mi + si)
			fresh, err := RunMixWith(env, sc, mix, rand.New(rand.NewSource(seed)), nil)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := RunMixWith(env, sc, mix, rand.New(rand.NewSource(seed)), ar)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh.PerApp) != len(pooled.PerApp) {
				t.Fatalf("mix %d %s: per-app lengths differ", mi, sc.Name())
			}
			// Copy before the arena's next use: pooled.Sched borrows ar.
			perApp := append([]float64(nil), pooled.PerApp...)
			for p := range fresh.PerApp {
				if fresh.PerApp[p] != perApp[p] {
					t.Errorf("mix %d %s app %d: pooled %v != fresh %v", mi, sc.Name(), p, perApp[p], fresh.PerApp[p])
				}
			}
			if fresh.OnChipPKI != pooled.OnChipPKI || fresh.OffChipPKI != pooled.OffChipPKI {
				t.Errorf("mix %d %s: latency breakdown drifted", mi, sc.Name())
			}
			basePerApp = append(basePerApp, fresh.PerApp)
			baseArPerApp = append(baseArPerApp, perApp)
		}
		// Weighted speedups vs scheme 0 are bit-equal too (they are pure
		// functions of bit-equal per-app rates, asserted for completeness).
		for si := range schemes {
			wsFresh := MixResult{PerApp: basePerApp[si]}
			wsPooled := MixResult{PerApp: baseArPerApp[si]}
			baseFresh := MixResult{PerApp: basePerApp[0]}
			basePooled := MixResult{PerApp: baseArPerApp[0]}
			if WeightedSpeedup(wsFresh, baseFresh) != WeightedSpeedup(wsPooled, basePooled) {
				t.Errorf("mix %d scheme %d: weighted speedup drifted under arena reuse", mi, si)
			}
		}
	}
}
