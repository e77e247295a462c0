// Package curves provides piecewise-linear curves over cache capacity.
//
// Miss curves map allocated capacity (in cache lines) to misses per
// kilo-instruction; latency curves map capacity to total memory access
// latency (the paper's Eq. 1 + Eq. 2). Capacity allocation (internal/alloc)
// works on the convex lower hulls of these curves, which is what makes the
// Lookahead/Peekahead algorithm exact and fast.
package curves

import (
	"fmt"
	"math"
	"sort"
)

// Curve is a piecewise-linear function y(x) defined by knots with strictly
// increasing X. Evaluation clamps outside the knot range (y is constant
// before the first and after the last knot). The zero value is an empty
// curve; construct with New.
type Curve struct {
	xs []float64
	ys []float64
}

// New builds a curve from parallel knot slices. It panics if the slices have
// mismatched lengths, fewer than one point, or non-increasing X: curve
// construction errors are programming errors.
func New(xs, ys []float64) Curve {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("curves: %d xs vs %d ys", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		panic("curves: empty curve")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			panic(fmt.Sprintf("curves: non-increasing x at %d: %g after %g", i, xs[i], xs[i-1]))
		}
	}
	c := Curve{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}
	return c
}

// Constant returns a curve with constant value y over [0, xMax].
func Constant(y, xMax float64) Curve {
	if xMax <= 0 {
		return New([]float64{0}, []float64{y})
	}
	return New([]float64{0, xMax}, []float64{y, y})
}

// Len returns the number of knots.
func (c Curve) Len() int { return len(c.xs) }

// Knot returns the i-th knot.
func (c Curve) Knot(i int) (x, y float64) { return c.xs[i], c.ys[i] }

// Xs returns a copy of the knot X values.
func (c Curve) Xs() []float64 { return append([]float64(nil), c.xs...) }

// Ys returns a copy of the knot Y values.
func (c Curve) Ys() []float64 { return append([]float64(nil), c.ys...) }

// MaxX returns the largest knot X.
func (c Curve) MaxX() float64 { return c.xs[len(c.xs)-1] }

// Eval returns y(x) with linear interpolation between knots and clamping
// outside the domain.
func (c Curve) Eval(x float64) float64 {
	n := len(c.xs)
	if x <= c.xs[0] {
		return c.ys[0]
	}
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	// Find first knot with xs[i] >= x.
	i := sort.SearchFloat64s(c.xs, x)
	if c.xs[i] == x {
		return c.ys[i]
	}
	x0, y0 := c.xs[i-1], c.ys[i-1]
	x1, y1 := c.xs[i], c.ys[i]
	f := (x - x0) / (x1 - x0)
	return y0 + f*(y1-y0)
}

// IsNonIncreasing reports whether the curve never rises as capacity grows
// (true for LRU miss curves, false for total-latency curves, which is why
// latency-aware allocation can leave capacity unused).
func (c Curve) IsNonIncreasing() bool {
	for i := 1; i < len(c.ys); i++ {
		if c.ys[i] > c.ys[i-1]+1e-12 {
			return false
		}
	}
	return true
}

// ArgMin returns the knot (x, y) with minimal y, preferring the smallest x on
// ties. This is the "sweet spot" of a total-latency curve (paper Fig. 5).
func (c Curve) ArgMin() (x, y float64) {
	bi := 0
	for i := 1; i < len(c.ys); i++ {
		if c.ys[i] < c.ys[bi] {
			bi = i
		}
	}
	return c.xs[bi], c.ys[bi]
}

// ConvexHull returns the lower convex hull of the curve: the tightest convex
// piecewise-linear function passing through a subset of the knots with
// hull(x) <= y(x) at knots. Allocation walks this hull so every step takes
// the steepest available marginal-utility segment (the Peekahead insight).
func (c Curve) ConvexHull() Curve {
	n := len(c.xs)
	if n <= 2 {
		return Curve{xs: append([]float64(nil), c.xs...), ys: append([]float64(nil), c.ys...)}
	}
	// Monotone-chain lower hull over knots (X already sorted).
	type pt struct{ x, y float64 }
	hull := make([]pt, 0, n)
	for i := 0; i < n; i++ {
		p := pt{c.xs[i], c.ys[i]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Keep b only if it is strictly below segment a-p (right turn test).
			if cross(a, b, p) <= 0 {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	xs := make([]float64, len(hull))
	ys := make([]float64, len(hull))
	for i, p := range hull {
		xs[i] = p.x
		ys[i] = p.y
	}
	return Curve{xs: xs, ys: ys}
}

// cross computes the z-component of (b-a)×(p-a); negative means b lies on or
// above the segment a-p, so b is not part of the lower hull.
func cross(a, b, p struct{ x, y float64 }) float64 {
	return (b.x-a.x)*(p.y-a.y) - (p.x-a.x)*(b.y-a.y)
}

// Equal reports whether two curves have identical knots within eps.
func Equal(a, b Curve, eps float64) bool {
	if len(a.xs) != len(b.xs) {
		return false
	}
	for i := range a.xs {
		if math.Abs(a.xs[i]-b.xs[i]) > eps || math.Abs(a.ys[i]-b.ys[i]) > eps {
			return false
		}
	}
	return true
}
