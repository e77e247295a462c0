package curves

import (
	"math"
	"testing"
)

// FuzzConvexHull feeds arbitrary (including malformed) knot data through
// hull construction and checks three invariants:
//
//  1. malformed input never panics with anything but the documented
//     construction panics (New/Wrap reject it up front);
//  2. the in-place hull matches the allocating hull bit for bit;
//  3. hull-of-hull is the identity — a lower convex hull is already convex,
//     so taking it twice must change nothing.
func FuzzConvexHull(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the byte stream into knot pairs. Construction is expected
		// to reject bad shapes by panicking in New — that is the documented
		// contract ("construction errors are programming errors") — so the
		// harness recovers around it and only keeps inputs New accepts.
		n := len(data) / 16
		xs := make([]float64, 0, n)
		ys := make([]float64, 0, n)
		for i := 0; i+16 <= len(data); i += 16 {
			xs = append(xs, decodeFloat(data[i:i+8]))
			ys = append(ys, decodeFloat(data[i+8:i+16]))
		}
		var c Curve
		ok := func() (ok bool) {
			defer func() { recover() }()
			c = New(xs, ys)
			return true
		}()
		if !ok {
			return // malformed by New's rules; rejection is the correct behavior
		}
		for i := range xs {
			// NaN xs sneak past New's ordering check (every comparison with
			// NaN is false); hull geometry is undefined on non-finite values.
			if !finite(xs[i]) || !finite(ys[i]) {
				return
			}
		}

		hull := c.ConvexHull()
		inPlace := c.ConvexHullInto(Curve{})
		if !bitEqual(hull, inPlace) {
			t.Fatalf("ConvexHullInto differs from ConvexHull:\n  %v\n  %v", hull, inPlace)
		}

		again := hull.ConvexHull()
		if !bitEqual(hull, again) {
			t.Fatalf("hull of hull is not identity:\n  %v\n  %v", hull, again)
		}

		// Structural sanity: a hull never has more knots than its source and
		// keeps both endpoints.
		if hull.Len() > c.Len() {
			t.Fatalf("hull has %d knots, source %d", hull.Len(), c.Len())
		}
		if hx, _ := hull.Knot(0); hx != c.xs[0] {
			t.Fatalf("hull lost first knot: %g vs %g", hx, c.xs[0])
		}
		if hx, _ := hull.Knot(hull.Len() - 1); hx != c.MaxX() {
			t.Fatalf("hull lost last knot: %g vs %g", hx, c.MaxX())
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// decodeFloat reads 8 bytes as a float64 bit pattern.
func decodeFloat(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}
