package curves

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		ys   []float64
	}{
		{"mismatched", []float64{0, 1}, []float64{0}},
		{"empty", nil, nil},
		{"non-increasing", []float64{0, 1, 1}, []float64{3, 2, 1}},
		{"decreasing", []float64{0, 2, 1}, []float64{3, 2, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v,%v) did not panic", c.xs, c.ys)
				}
			}()
			New(c.xs, c.ys)
		})
	}
}

func TestEvalInterpolationAndClamping(t *testing.T) {
	c := New([]float64{0, 10, 20}, []float64{100, 50, 50})
	cases := []struct {
		x, want float64
	}{
		{-5, 100}, // clamp left
		{0, 100},  // knot
		{5, 75},   // midpoint interpolation
		{10, 50},  // knot
		{15, 50},  // flat segment
		{20, 50},  // last knot
		{100, 50}, // clamp right
		{2.5, 87.5},
	}
	for _, cs := range cases {
		if got := c.Eval(cs.x); !approx(got, cs.want, 1e-12) {
			t.Errorf("Eval(%g)=%g, want %g", cs.x, got, cs.want)
		}
	}
}

func TestConstant(t *testing.T) {
	c := Constant(7, 100)
	for _, x := range []float64{0, 50, 100, 200} {
		if got := c.Eval(x); got != 7 {
			t.Errorf("Constant.Eval(%g)=%g", x, got)
		}
	}
	// Degenerate domain still evaluates.
	d := Constant(3, 0)
	if d.Eval(10) != 3 {
		t.Errorf("Constant with xMax=0 broken")
	}
}

func TestIsNonIncreasing(t *testing.T) {
	if !New([]float64{0, 1, 2}, []float64{5, 3, 3}).IsNonIncreasing() {
		t.Error("non-increasing curve misclassified")
	}
	if New([]float64{0, 1, 2}, []float64{5, 3, 4}).IsNonIncreasing() {
		t.Error("increasing tail misclassified")
	}
}

func TestArgMin(t *testing.T) {
	// U-shaped latency curve: sweet spot in the middle.
	c := New([]float64{0, 1, 2, 3, 4}, []float64{10, 6, 3, 5, 9})
	x, y := c.ArgMin()
	if x != 2 || y != 3 {
		t.Errorf("ArgMin=(%g,%g), want (2,3)", x, y)
	}
	// Tie prefers smaller x.
	c2 := New([]float64{0, 1, 2}, []float64{3, 1, 1})
	x2, _ := c2.ArgMin()
	if x2 != 1 {
		t.Errorf("ArgMin tie-break: x=%g, want 1", x2)
	}
}

func TestConvexHullKnownShape(t *testing.T) {
	// A miss curve with a bump: the hull should skip the bump knot.
	c := New([]float64{0, 1, 2, 3}, []float64{10, 9, 4, 3})
	h := c.ConvexHull()
	// Knot (1,9) lies above the chord from (0,10) to (2,4); hull drops it.
	if h.Len() != 3 {
		t.Fatalf("hull has %d knots, want 3 (got xs=%v ys=%v)", h.Len(), h.Xs(), h.Ys())
	}
	if h.Eval(1) >= c.Eval(1) {
		t.Errorf("hull not strictly below curve at bump: %g vs %g", h.Eval(1), c.Eval(1))
	}
}

func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		c := randomCurve(rng, 3+rng.Intn(20))
		h := c.ConvexHull()
		// 1. Hull is below or equal to curve at every original knot.
		for i := 0; i < c.Len(); i++ {
			x, y := c.Knot(i)
			if h.Eval(x) > y+1e-9 {
				t.Fatalf("trial %d: hull above curve at x=%g: %g > %g", trial, x, h.Eval(x), y)
			}
		}
		// 2. Hull endpoints match curve endpoints.
		if h.xs[0] != c.xs[0] || h.MaxX() != c.MaxX() {
			t.Fatalf("trial %d: hull domain changed", trial)
		}
		x0, y0 := h.Knot(0)
		xn, yn := h.Knot(h.Len() - 1)
		if !approx(y0, c.Eval(x0), 1e-9) || !approx(yn, c.Eval(xn), 1e-9) {
			t.Fatalf("trial %d: hull endpoints moved", trial)
		}
		// 3. Hull slopes are non-decreasing (convexity).
		prevSlope := math.Inf(-1)
		for i := 1; i < h.Len(); i++ {
			x1, y1 := h.Knot(i - 1)
			x2, y2 := h.Knot(i)
			slope := (y2 - y1) / (x2 - x1)
			if slope < prevSlope-1e-9 {
				t.Fatalf("trial %d: hull not convex: slope %g after %g", trial, slope, prevSlope)
			}
			prevSlope = slope
		}
		// 4. Idempotent.
		if hh := h.ConvexHull(); !Equal(h, hh, 1e-9) {
			t.Fatalf("trial %d: hull not idempotent", trial)
		}
	}
}

func TestConvexHullOfConvexCurveIsIdentity(t *testing.T) {
	c := New([]float64{0, 1, 2, 3}, []float64{9, 4, 2, 1.5})
	if h := c.ConvexHull(); !Equal(c, h, 1e-12) {
		t.Errorf("hull of convex curve changed knots: %v -> %v", c.Ys(), h.Ys())
	}
}

func TestEqual(t *testing.T) {
	a := New([]float64{0, 1}, []float64{2, 3})
	b := New([]float64{0, 1}, []float64{2, 3 + 1e-12})
	if !Equal(a, b, 1e-9) {
		t.Error("nearly equal curves reported different")
	}
	c := New([]float64{0, 1, 2}, []float64{2, 3, 4})
	if Equal(a, c, 1e-9) {
		t.Error("different-length curves reported equal")
	}
}

// randomCurve builds a random monotone-X curve with n knots.
func randomCurve(rng *rand.Rand, n int) Curve {
	if n < 2 {
		n = 2
	}
	xs := make([]float64, n)
	seen := map[float64]bool{}
	for i := range xs {
		v := math.Floor(rng.Float64()*1000) / 10
		for seen[v] {
			v += 0.1
		}
		seen[v] = true
		xs[i] = v
	}
	sort.Float64s(xs)
	// Re-dedup after sort (floating addition above could collide).
	uniq := xs[:1]
	for _, v := range xs[1:] {
		if v > uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	xs = uniq
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = rng.Float64() * 100
	}
	return New(xs, ys)
}

func approx(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}
