package alloc

import (
	"cdcs/internal/curves"
	"cdcs/internal/mesh"
)

// Arena holds reusable storage for the capacity-allocation hot path: per-VC
// cost curves and convex hulls, the Peekahead segment heap, allocation
// vectors, and a memoized compact-distance curve. Reusing one arena across
// reconfiguration rounds makes steady-state allocation (step 1 of the
// pipeline) heap-allocation-free, matching the arena treatment the placement
// steps already have (place.Arena).
//
// An Arena is not safe for concurrent use. Allocations returned by the *In
// entry points borrow the arena's memory and stay valid only until its next
// allocation call; callers that retain results must copy them or pass a nil
// arena, which gives the call a fresh one.
type Arena struct {
	costs []curves.Curve // per-VC cost-curve slots (backings reused)
	hulls []curves.Curve // per-VC hull slots (backings reused)
	heap  segHeap
	alloc []float64
	quant []float64
	fracs []frac

	// CompactDistance memo: the curve depends only on the topology and the
	// bank size, both constant across a campaign's rounds.
	distTopo  *mesh.Topology
	distLines float64
	dist      curves.Curve
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// growFloats returns a zeroed []float64 of length n reusing buf's capacity.
func growFloats(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// growCurves returns a slice of n curve slots, preserving the slots'
// existing backing arrays so the *Into builders can reuse them.
func growCurves(buf *[]curves.Curve, n int) []curves.Curve {
	s := *buf
	if cap(s) < n {
		ns := make([]curves.Curve, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// Costs returns n cost-curve slots backed by the arena. Build each slot with
// TotalLatencyCurveInto / MissLatencyCurveInto, then feed the slice to a
// Peekahead*In call.
func (a *Arena) Costs(n int) []curves.Curve {
	return growCurves(&a.costs, n)
}

// CompactDistance is the package-level CompactDistance memoized on (topo,
// bankLines): campaigns re-run the allocator on the same chip every round,
// and the curve never changes.
func (a *Arena) CompactDistance(topo *mesh.Topology, bankLines float64) curves.Curve {
	if a.distTopo == topo && a.distLines == bankLines {
		return a.dist
	}
	a.dist = CompactDistance(topo, bankLines)
	a.distTopo, a.distLines = topo, bankLines
	return a.dist
}

// knotUnionInto is knotUnion built by a linear merge into dst (resliced to
// empty) instead of a map and a sort: both knot lists are already strictly
// ascending, so merging them while skipping values outside (0, maxLines)
// yields exactly the same sorted unique set.
func knotUnionInto(dst []float64, a, b curves.Curve, maxLines float64) []float64 {
	dst = append(dst[:0], 0)
	i, j := 0, 0
	an, bn := a.Len(), b.Len()
	for i < an || j < bn {
		var v float64
		switch {
		case i >= an:
			v, _ = b.Knot(j)
			j++
		case j >= bn:
			v, _ = a.Knot(i)
			i++
		default:
			av, _ := a.Knot(i)
			bv, _ := b.Knot(j)
			if av <= bv {
				v = av
				i++
				if av == bv {
					j++
				}
			} else {
				v = bv
				j++
			}
		}
		if v >= maxLines {
			// Knot lists are ascending, so everything left is out of range.
			break
		}
		if v <= dst[len(dst)-1] {
			continue // below zero, or a duplicate of the previous knot
		}
		dst = append(dst, v)
	}
	return append(dst, maxLines)
}

// TotalLatencyCurveInto is TotalLatencyCurve with the result built in dst's
// backing arrays: the knot union is a linear merge and both curve sweeps use
// monotone cursors, so it is allocation-free in steady state and bit-
// identical to the allocating form. dst must not alias ratio or dist.
func TotalLatencyCurveInto(dst curves.Curve, ratio curves.Curve, apki float64, dist curves.Curve, m LatencyModel, maxLines float64) curves.Curve {
	xs, ys := dst.Reuse()
	xs = knotUnionInto(xs, ratio, dist, maxLines)
	var rw, dw curves.Walker
	rw.Reset(ratio)
	dw.Reset(dist)
	for _, x := range xs {
		miss := rw.Eval(x)
		onChip := apki * dw.Eval(x) * m.HopLatency * m.RoundTrip
		offChip := apki * miss * m.MemLatency
		ys = append(ys, onChip+offChip)
	}
	return curves.Wrap(xs, ys)
}

// MissLatencyCurveInto is MissLatencyCurve with the result built in dst's
// backing arrays. dst must not alias ratio.
func MissLatencyCurveInto(dst curves.Curve, ratio curves.Curve, apki float64, m LatencyModel, maxLines float64) curves.Curve {
	xs, ys := dst.Reuse()
	// The zero-distance constant curve contributes no interior knots, so the
	// union is just ratio's knots clipped to the domain.
	xs = knotUnionInto(xs, ratio, curves.Curve{}, maxLines)
	var rw curves.Walker
	rw.Reset(ratio)
	for _, x := range xs {
		ys = append(ys, apki*rw.Eval(x)*m.MemLatency)
	}
	return curves.Wrap(xs, ys)
}
