package curves

import (
	"math"
	"math/rand"
	"testing"
)

// bitEqual reports exact (bit-level) knot equality.
func bitEqual(a, b Curve) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ax, ay := a.Knot(i)
		bx, by := b.Knot(i)
		if ax != bx || ay != by || math.Signbit(ay) != math.Signbit(by) {
			return false
		}
	}
	return true
}

func TestWrapMatchesNew(t *testing.T) {
	xs := []float64{0, 1, 3}
	ys := []float64{5, 2, 4}
	if !bitEqual(Wrap(xs, ys), New(xs, ys)) {
		t.Fatal("Wrap and New disagree")
	}
	for _, bad := range []struct{ xs, ys []float64 }{
		{[]float64{0, 1}, []float64{1}},
		{nil, nil},
		{[]float64{1, 1}, []float64{0, 0}},
		{[]float64{2, 1}, []float64{0, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Wrap(%v, %v) did not panic", bad.xs, bad.ys)
				}
			}()
			Wrap(bad.xs, bad.ys)
		}()
	}
}

func TestConvexHullIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst Curve
	for trial := 0; trial < 500; trial++ {
		c := randomCurve(rng, 2+rng.Intn(40))
		want := c.ConvexHull()
		dst = c.ConvexHullInto(dst) // reuse the same backing every trial
		if !bitEqual(want, dst) {
			t.Fatalf("trial %d: hulls differ: %v vs %v", trial, want, dst)
		}
	}
}

func TestWalkerMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		c := randomCurve(rng, 2+rng.Intn(25))
		var w Walker
		w.Reset(c)
		// A non-decreasing query sweep spanning beyond both curve ends,
		// including exact knot hits.
		x := c.xs[0] - 10
		for x <= c.MaxX()+10 {
			if got, want := w.Eval(x), c.Eval(x); got != want {
				t.Fatalf("trial %d: Walker.Eval(%g)=%g, Eval=%g", trial, x, got, want)
			}
			x += rng.Float64() * 5
			if rng.Intn(4) == 0 {
				// Jump exactly onto a knot.
				kx, _ := c.Knot(rng.Intn(c.Len()))
				if kx >= x {
					x = kx
				}
			}
		}
	}
}

func TestIntoVariantsDoNotAllocateSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCurve(rng, 64)
	var hull Curve
	// Warm up the destination backing.
	hull = c.ConvexHullInto(hull)
	allocs := testing.AllocsPerRun(50, func() {
		hull = c.ConvexHullInto(hull)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Into variants allocated %.1f times per run", allocs)
	}
}
