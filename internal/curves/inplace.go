package curves

// In-place variants of the hot-path operations. The capacity allocator
// rebuilds cost curves and convex hulls every reconfiguration round; the
// allocating entry points (New, ConvexHull) copy their knot slices
// defensively, which dominates the allocator's heap profile in steady
// state. The *Into forms below reuse a destination curve's backing
// arrays instead, and Wrap adopts caller-built slices without a copy.
//
// Borrowing contract: a curve built by Wrap or an Into variant shares
// memory with its source slices or destination curve. Callers own that
// memory and must not mutate it while the curve is in use, and must not
// pass a destination that aliases an input. Results are bit-identical to
// the allocating forms: same arithmetic, same order of operations.

// Wrap builds a curve that adopts the given slices without copying. The
// same validity rules as New apply (equal lengths, at least one knot,
// strictly increasing X) and violations panic. The caller must not mutate
// the slices for the curve's lifetime.
func Wrap(xs, ys []float64) Curve {
	if len(xs) != len(ys) {
		panic("curves: mismatched knot slices")
	}
	if len(xs) == 0 {
		panic("curves: empty curve")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			panic("curves: non-increasing x")
		}
	}
	return Curve{xs: xs, ys: ys}
}

// Reuse returns the curve's backing arrays truncated to zero length, for
// rebuilding a curve in place (append knots, then Wrap). The zero Curve
// returns nil slices, which append handles. After Reuse the original curve
// must not be evaluated again: its knots will be overwritten.
func (c Curve) Reuse() (xs, ys []float64) {
	return c.xs[:0], c.ys[:0]
}

// ID identifies a curve by its knot storage. Curves are immutable, so two
// curves with equal IDs have bit-identical knots; equal knots held in
// separate storage have different IDs. The zero Curve has the zero ID.
type ID struct {
	xs, ys *float64
	n      int
}

// ID returns c's storage identity.
func (c Curve) ID() ID {
	if len(c.xs) == 0 {
		return ID{}
	}
	return ID{xs: &c.xs[0], ys: &c.ys[0], n: len(c.xs)}
}

// ConvexHullInto is ConvexHull with the hull built in dst's backing
// arrays: identical monotone chain, identical cross-product test, so the
// result matches ConvexHull bit for bit. dst must not alias c.
func (c Curve) ConvexHullInto(dst Curve) Curve {
	xs, ys := dst.Reuse()
	n := len(c.xs)
	if n <= 2 {
		return Curve{xs: append(xs, c.xs...), ys: append(ys, c.ys...)}
	}
	for i := 0; i < n; i++ {
		px, py := c.xs[i], c.ys[i]
		for len(xs) >= 2 {
			ax, ay := xs[len(xs)-2], ys[len(ys)-2]
			bx, by := xs[len(xs)-1], ys[len(ys)-1]
			// Same right-turn test as ConvexHull's cross().
			if (bx-ax)*(py-ay)-(px-ax)*(by-ay) <= 0 {
				xs = xs[:len(xs)-1]
				ys = ys[:len(ys)-1]
			} else {
				break
			}
		}
		xs = append(xs, px)
		ys = append(ys, py)
	}
	return Curve{xs: xs, ys: ys}
}

// Walker evaluates a curve at a non-decreasing sequence of points with an
// amortized O(1) cursor instead of Eval's per-call binary search. The
// interpolation arithmetic is Eval's exactly, so for any query sequence the
// results are bit-identical to calling Eval. Reset before each new sweep.
type Walker struct {
	c Curve
	i int
}

// Reset points the walker at c and rewinds the cursor.
func (w *Walker) Reset(c Curve) {
	w.c = c
	w.i = 1
}

// Eval returns y(x). x must be >= the previous Eval argument since Reset;
// smaller arguments return wrong interval lookups.
func (w *Walker) Eval(x float64) float64 {
	c := w.c
	n := len(c.xs)
	if x <= c.xs[0] {
		return c.ys[0]
	}
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	// Advance to the first knot with xs[i] >= x — the same index Eval's
	// sort.SearchFloat64s finds (queries are non-decreasing, so the cursor
	// never has to move back).
	i := w.i
	for c.xs[i] < x {
		i++
	}
	w.i = i
	if c.xs[i] == x {
		return c.ys[i]
	}
	x0, y0 := c.xs[i-1], c.ys[i-1]
	x1, y1 := c.xs[i], c.ys[i]
	f := (x - x0) / (x1 - x0)
	return y0 + f*(y1-y0)
}
