package alloc

import (
	"math"

	"cdcs/internal/curves"
	"cdcs/internal/mesh"
)

// Arena holds reusable storage for the capacity-allocation hot path: cost
// curves and convex hulls, the Peekahead segment heap, allocation vectors,
// and a memoized compact-distance curve. Reusing one arena across
// reconfiguration rounds makes steady-state allocation (step 1 of the
// pipeline) heap-allocation-free, matching the arena treatment the placement
// steps already have (place.Arena).
//
// Cost curves and hulls are stored once per class of VCs with bit-identical
// curves (SharedCosts); per-VC headers alias the class slots. Slots and
// headers are separate fields, so a header that aliased slot A in one round
// is never rebuilt in place, over A's backing, in the next.
//
// An Arena is not safe for concurrent use. Allocations returned by the *In
// entry points borrow the arena's memory and stay valid only until its next
// allocation call; callers that retain results must copy them or pass a nil
// arena, which gives the call a fresh one.
type Arena struct {
	costs      []curves.Curve  // per-VC cost headers of the last SharedCosts round
	class      []int           // per-VC class of that round, numbered by first VC
	classIdx   map[costKey]int // Share's key → class lookup
	classCosts []curves.Curve  // per-class cost-curve slots (backings reused)
	hulls      []curves.Curve  // per-VC hull headers, aliasing classHulls
	classHulls []curves.Curve  // per-class hull slots (backings reused)
	heap       segHeap
	alloc      []float64
	quant      []float64
	fracs      []frac

	// CompactDistance memo: the curve depends only on the topology and the
	// bank size, both constant across a campaign's rounds.
	distTopo  *mesh.Topology
	distLines float64
	dist      curves.Curve
}

// costKey is what a VC's step-1 cost curve depends on within one round: its
// miss-ratio curve and its APKI. The chip, the latency model and the
// features are fixed for the round.
type costKey struct {
	ratio curves.ID
	apki  uint64 // math.Float64bits
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

// growInts returns an []int of length n reusing buf's capacity; the
// contents are left for the caller to overwrite.
func growInts(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
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

// SharedCosts starts a round in which VCs with the same miss-ratio curve
// and APKI share one cost curve, and returns n per-VC headers. Fill every
// header, in VC order, through Share:
//
//	slot, first := ar.Share(v, ratio, apki)
//	if first {
//		*slot = TotalLatencyPrefixInto(*slot, ratio, apki, ...)
//	}
//	costs[v] = *slot
//
// Passing the headers, unmodified, to a Peekahead*In call on the same arena
// hulls each class once. The headers stay valid until the arena's next
// SharedCosts call.
func (a *Arena) SharedCosts(n int) []curves.Curve {
	if a.classIdx == nil {
		a.classIdx = make(map[costKey]int)
	}
	clear(a.classIdx)
	a.class = growInts(&a.class, n)
	growCurves(&a.classCosts, n) // every VC may open a class: no regrowth mid-round
	return growCurves(&a.costs, n)
}

// Share returns the cost-curve slot of VC v's class, keyed on ratio's
// storage identity (curves.ID) and the bits of apki, and whether v is the
// class's first VC and so must build the curve into *slot. Curves are
// immutable, so VCs with equal keys have bit-identical cost curves. The
// slot pointer is valid until the next Share call.
func (a *Arena) Share(v int, ratio curves.Curve, apki float64) (slot *curves.Curve, first bool) {
	key := costKey{ratio.ID(), math.Float64bits(apki)}
	k, ok := a.classIdx[key]
	if !ok {
		k = len(a.classIdx)
		a.classIdx[key] = k
	}
	a.class[v] = k
	return &a.classCosts[k], !ok
}

// SharedWork reports the last SharedCosts round's step-1 work: the number
// of distinct cost curves built, and the summed length of the per-VC
// curves, which counts each class once per member VC.
func (a *Arena) SharedWork() (distinct, knots int) {
	for _, c := range a.costs {
		knots += c.Len()
	}
	return len(a.classIdx), knots
}

// classesOf returns each VC's class when costs are the headers of the last
// SharedCosts round, and nil (every VC its own class) for any other slice.
func (a *Arena) classesOf(costs []curves.Curve) []int {
	if len(costs) == 0 || len(costs) != len(a.class) || &costs[0] != &a.costs[0] {
		return nil
	}
	return a.class
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

// knotCursor walks the sorted union of two curves' knot positions clipped
// to [0, maxLines]: 0, then every knot of either curve strictly inside the
// domain once, then maxLines. Both knot lists are strictly ascending, so a
// linear merge yields exactly the sorted unique set a map and a sort would,
// and a caller can stop partway without touching the rest.
type knotCursor struct {
	a, b          curves.Curve
	i, j          int
	prev          float64 // last interior position returned
	maxLines      float64
	started, done bool
}

func newKnotCursor(a, b curves.Curve, maxLines float64) knotCursor {
	return knotCursor{a: a, b: b, maxLines: maxLines}
}

// next returns the next position, or false after maxLines.
func (k *knotCursor) next() (float64, bool) {
	if !k.started {
		k.started = true
		return 0, true
	}
	if k.done {
		return 0, false
	}
	an, bn := k.a.Len(), k.b.Len()
	for k.i < an || k.j < bn {
		var v float64
		switch {
		case k.i >= an:
			v, _ = k.b.Knot(k.j)
			k.j++
		case k.j >= bn:
			v, _ = k.a.Knot(k.i)
			k.i++
		default:
			av, _ := k.a.Knot(k.i)
			bv, _ := k.b.Knot(k.j)
			if av <= bv {
				v = av
				k.i++
				if av == bv {
					k.j++
				}
			} else {
				v = bv
				k.j++
			}
		}
		if v >= k.maxLines {
			// Knot lists are ascending, so everything left is out of range.
			break
		}
		if v <= k.prev {
			continue // below zero, or a duplicate of the previous knot
		}
		k.prev = v
		return v, true
	}
	k.done = true
	return k.maxLines, true
}

// knotUnionInto is knotUnion built into dst (resliced to empty) by a
// knotCursor instead of a map and a sort.
func knotUnionInto(dst []float64, a, b curves.Curve, maxLines float64) []float64 {
	dst = dst[:0]
	k := newKnotCursor(a, b, maxLines)
	for x, ok := k.next(); ok; x, ok = k.next() {
		dst = append(dst, x)
	}
	return dst
}

// TotalLatencyPrefixInto builds, in dst's backing arrays, the prefix of
// TotalLatencyCurve that Peekahead can use: the same knots with bit-identical
// costs, stopping at the first knot whose on-chip term
// apki·dist(x)·hop·roundTrip alone exceeds the minimum of the costs already
// built. It walks the ratio and distance knot lists in step, evaluating each
// merged knot as it goes, so the work is O(knots kept), not O(banks). dst
// must not alias ratio or dist.
//
// This is Peekahead's own idea of looking only as far ahead as the next
// useful hull segment (§IV-C), and it is exact for PeekaheadIn and
// PeekaheadQuantizedIn. Let m be the running minimum when the walk stops
// at knot k.
//   - No later knot can lie on a negative-rate hull segment. Every later
//     knot's cost is its on-chip term plus a miss term, and the miss ratio
//     is ≥ 0. Its on-chip term is at least knot k's, because the distance
//     curve never decreases and apki, hop and roundTrip are ≥ 0. So every
//     later knot costs more than m. The curve's first minimum b is
//     therefore kept: it lies strictly below the chord from any higher
//     earlier knot to any knot at or above m, so ConvexHull never drops it.
//     The hull's negative-rate segments all end at or before b, and a
//     later knot can only sit on the hull's rising part.
//   - PeekaheadIn and PeekaheadQuantizedIn, the only allocators fed these
//     curves, never take a segment with rate ≥ 0. They consume a VC's hull
//     segments in order and stop at the first one that is not negative. So
//     they see the same segments, with the same dx and dy, on the prefix
//     as on the whole curve.
//   - The argument also holds in float64. Every operation above is
//     monotone: interpolating a non-decreasing curve, multiplying by
//     factors ≥ 0, and adding a term ≥ 0. Rounding is monotone too, so the
//     computed on-chip term is a lower bound on every later computed cost,
//     and the computed rates have the exact signs. The chord test at b
//     could only round the wrong way for a later knot within rounding
//     error of b in both position and cost.
//
// PeekaheadFullIn also takes rate-0 segments, so it needs the whole curve:
// use TotalLatencyCurve for it, and wherever the curve itself is reported.
func TotalLatencyPrefixInto(dst curves.Curve, ratio curves.Curve, apki float64, dist curves.Curve, m LatencyModel, maxLines float64) curves.Curve {
	xs, ys := dst.Reuse()
	knots := newKnotCursor(ratio, dist, maxLines)
	var rw, dw curves.Walker
	rw.Reset(ratio)
	dw.Reset(dist)
	minCost := math.Inf(1)
	for x, ok := knots.next(); ok; x, ok = knots.next() {
		onChip := apki * dw.Eval(x) * m.HopLatency * m.RoundTrip
		if onChip > minCost {
			break
		}
		offChip := apki * rw.Eval(x) * m.MemLatency
		y := onChip + offChip
		xs = append(xs, x)
		ys = append(ys, y)
		minCost = min(minCost, y)
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
