package sim

import (
	"math/rand"
	"slices"
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
// It runs twice: on a new arena, and on one that first served every scheme on
// a larger chip, as an arena from the process cache may have.
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
	larger := policy.NewArena()
	bigEnv := policy.ScaledEnv(16, 16)
	bigMix := workload.RandomST(rand.New(rand.NewSource(13)), cpu, 256)
	for si, sc := range schemes {
		if _, err := RunMixWith(bigEnv, sc, bigMix, rand.New(rand.NewSource(int64(si))), larger); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("new", func(t *testing.T) { checkArenaBitIdentical(t, env, schemes, mixes, policy.NewArena()) })
	t.Run("served-16x16", func(t *testing.T) { checkArenaBitIdentical(t, env, schemes, mixes, larger) })
}

// checkArenaBitIdentical runs every scheme on every mix through ar, which
// is deliberately shared across all the runs, and compares each result bit
// for bit with a nil-arena run.
func checkArenaBitIdentical(t *testing.T, env policy.Env, schemes []policy.Scheme, mixes []*workload.Mix, ar *policy.Arena) {
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

// TestSeededRandMatchesEagerSource checks that the lazily seeded source
// yields the eager source's stream value for value, through every draw the
// simulator makes (Perm) and the Source64 fast path, and after a reseed.
func TestSeededRandMatchesEagerSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		lazy, eager := SeededRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			if a, b := lazy.Perm(64), eager.Perm(64); !slices.Equal(a, b) {
				t.Fatalf("seed %d: Perm %v != %v", seed, a, b)
			}
			if a, b := lazy.Uint64(), eager.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 %d != %d", seed, a, b)
			}
			if a, b := lazy.Float64(), eager.Float64(); a != b {
				t.Fatalf("seed %d: Float64 %v != %v", seed, a, b)
			}
		}
		lazy.Seed(seed + 1)
		eager.Seed(seed + 1)
		if a, b := lazy.Int63(), eager.Int63(); a != b {
			t.Fatalf("seed %d: Int63 after Seed %d != %d", seed, a, b)
		}
	}
}
