// Package alloc implements capacity allocation for partitioned NUCA caches.
//
// It provides the Peekahead-style allocator (§IV-C): an exact greedy walk
// over the convex lower hulls of per-VC cost curves. Fed miss curves scaled
// by memory latency it reproduces Jigsaw's miss-minimizing allocation; fed
// total-latency curves (off-chip + optimistic on-chip latency) it becomes
// CDCS's latency-aware allocation, which deliberately leaves capacity unused
// when extra capacity would cost more in network hops than it saves in
// misses (Fig. 5's sweet spot).
package alloc

import (
	"fmt"
	"slices"

	"cdcs/internal/curves"
	"cdcs/internal/mesh"
)

// PeekaheadIn allocates totalLines among the given cost curves, minimizing
// the summed cost. Curves map capacity (lines) to cost (any consistent unit,
// e.g. latency cycles per kilo-instruction). Allocation works on convex
// hulls, so each greedy step is globally optimal for the continuous
// relaxation — the same property the paper's Peekahead exploits.
//
// Allocation stops early when no curve offers a cost reduction (possible
// with latency-aware curves); leftover capacity stays unallocated.
//
// Hull storage, the segment heap and the result vector come from ar, and
// the result borrows ar; a nil ar uses a fresh arena, so the result is
// independent.
func PeekaheadIn(ar *Arena, costs []curves.Curve, totalLines float64) []float64 {
	return peekahead(ar, costs, totalLines, true)
}

// PeekaheadFullIn allocates like PeekaheadIn but never stops early: segments
// with zero marginal utility are still taken, so all capacity is handed out
// whenever the curves' domains allow. This models Jigsaw's miss-curve
// allocation, which has no reason to leave capacity unused — and is exactly
// why Jigsaw over-expands VCs when capacity is plentiful (§VI-A, Fig. 14).
// Storage comes from ar as in PeekaheadIn.
func PeekaheadFullIn(ar *Arena, costs []curves.Curve, totalLines float64) []float64 {
	return peekahead(ar, costs, totalLines, false)
}

// PeekaheadQuantizedIn allocates like PeekaheadIn but rounds each VC's
// allocation to a multiple of chunkLines (whole-bank allocation in the
// §VI-C bank-partitioned configuration uses chunk = bank size). Rounding is
// largest-remainder so the total never exceeds totalLines. All scratch comes
// from ar as in PeekaheadIn.
func PeekaheadQuantizedIn(ar *Arena, costs []curves.Curve, totalLines, chunkLines float64) []float64 {
	if ar == nil {
		ar = NewArena()
	}
	raw := PeekaheadIn(ar, costs, totalLines)
	out := growFloats(&ar.quant, len(raw))
	ar.fracs = quantize(raw, out, ar.fracs[:0], totalLines, chunkLines)
	return out
}

// segment is one candidate hull advance for a VC.
type segment struct {
	vc   int
	dx   float64 // capacity the advance consumes
	dy   float64 // cost change (negative is improvement)
	rate float64 // dy/dx, the marginal utility (most negative first)
	knot int     // hull knot index this segment ends at
}

// segHeap is a binary min-heap of segments ordered by steepest descent. It
// implements push/pop directly (the classic sift-up/sift-down, identical
// element ordering to container/heap) rather than through heap.Interface:
// the interface's Push(any) boxes every segment, which was the last
// allocation left in the steady-state allocation round.
type segHeap []segment

func (h segHeap) less(i, j int) bool {
	if h[i].rate != h[j].rate {
		return h[i].rate < h[j].rate
	}
	return h[i].vc < h[j].vc
}

func (h segHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h segHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h segHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *segHeap) push(s segment) {
	*h = append(*h, s)
	h.up(len(*h) - 1)
}

func (h *segHeap) pop() segment {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	s := old[n]
	*h = old[:n]
	return s
}

// peekahead is the allocator behind PeekaheadIn and PeekaheadFullIn: a
// greedy walk that repeatedly takes the steepest remaining hull segment.
func peekahead(ar *Arena, costs []curves.Curve, totalLines float64, stopAtZero bool) []float64 {
	if ar == nil {
		ar = NewArena()
	}
	// One hull per distinct cost curve. Classes are numbered in order of
	// their first VC, so the VC that meets the next unbuilt class builds its
	// hull into the class slot, and every VC's header aliases its class's.
	class := ar.classesOf(costs)
	slots := growCurves(&ar.classHulls, len(costs))
	hulls := growCurves(&ar.hulls, len(costs))
	built := 0
	for v, c := range costs {
		k := v
		if class != nil {
			k = class[v]
		}
		if k == built {
			slots[k] = c.ConvexHullInto(slots[k])
			built++
		}
		hulls[v] = slots[k]
	}
	alloc := growFloats(&ar.alloc, len(hulls))
	h := ar.heap[:0]
	remaining := totalLines

	next := func(vc, fromKnot int) (segment, bool) {
		hull := hulls[vc]
		if fromKnot+1 >= hull.Len() {
			return segment{}, false
		}
		x0, y0 := hull.Knot(fromKnot)
		x1, y1 := hull.Knot(fromKnot + 1)
		return segment{
			vc: vc, dx: x1 - x0, dy: y1 - y0,
			rate: (y1 - y0) / (x1 - x0), knot: fromKnot + 1,
		}, true
	}
	for vc := range hulls {
		if s, ok := next(vc, 0); ok {
			h = append(h, s)
		}
	}
	h.init()

	for remaining > 1e-9 && len(h) > 0 {
		s := h.pop()
		if s.rate >= 0 && (stopAtZero || s.rate > 0) {
			// No curve improves with more capacity: stop (latency-aware);
			// in full mode only strictly harmful segments stop allocation.
			break
		}
		if s.dx <= remaining {
			alloc[s.vc] += s.dx
			remaining -= s.dx
			if nx, ok := next(s.vc, s.knot); ok {
				h.push(nx)
			}
		} else {
			// Partial advance along a linear hull segment keeps the same
			// marginal rate, so taking the remainder is still optimal.
			alloc[s.vc] += remaining
			remaining = 0
		}
	}
	ar.heap = h[:0] // keep the (possibly grown) backing for the next round
	return alloc
}

// frac is a VC's sub-chunk remainder, ranked for largest-remainder rounding.
type frac struct {
	vc int
	f  float64
}

// quantize rounds raw down to multiples of chunkLines into out, then hands
// leftover chunks to the largest remainders (VC index breaks ties, a total
// order, so the sort result is unique). fracs is scratch; the possibly-grown
// slice is returned so the arena can keep the backing.
func quantize(raw, out []float64, fracs []frac, totalLines, chunkLines float64) []frac {
	if chunkLines <= 0 {
		panic(fmt.Sprintf("alloc: invalid chunk %g", chunkLines))
	}
	used := 0.0
	for i, a := range raw {
		whole := float64(int(a / chunkLines))
		out[i] = whole * chunkLines
		used += out[i]
		fracs = append(fracs, frac{i, a - out[i]})
	}
	slices.SortFunc(fracs, func(a, b frac) int {
		if a.f != b.f {
			if a.f > b.f {
				return -1
			}
			return 1
		}
		return a.vc - b.vc
	})
	for _, fr := range fracs {
		if used+chunkLines > totalLines+1e-9 {
			break
		}
		if fr.f <= 1e-9 {
			break
		}
		out[fr.vc] += chunkLines
		used += chunkLines
	}
	return fracs
}

// CompactDistance returns the average network distance (hops) from a center
// tile to data placed compactly around it, as a function of placed capacity
// in lines: the optimistic on-chip distance the paper uses when sizing VCs
// before placement (Fig. 6). The curve's knots fall at cumulative bank
// capacities.
func CompactDistance(topo *mesh.Topology, bankLines float64) curves.Curve {
	center := topo.CenterTile()
	n := topo.Tiles()
	xs := make([]float64, 0, n+1)
	ys := make([]float64, 0, n+1)
	xs = append(xs, 0)
	ys = append(ys, 0)
	cum := 0.0     // lines placed
	distSum := 0.0 // sum of distance×lines
	cur := topo.RingFrom(center)
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		d := float64(cur.Dist())
		cum += bankLines
		distSum += d * bankLines
		xs = append(xs, cum)
		ys = append(ys, distSum/cum)
	}
	return curves.New(xs, ys)
}

// LatencyModel holds the constants that turn miss curves into latency curves.
type LatencyModel struct {
	// MemLatency is the effective memory access latency in cycles.
	MemLatency float64
	// HopLatency is the per-hop one-way network latency in cycles.
	HopLatency float64
	// RoundTrip multiplies hop counts to account for request+response
	// traversal (2 for symmetric paths).
	RoundTrip float64
}

// TotalLatencyCurve builds a VC's total memory-latency curve (cost per
// kilo-instruction): Eq. 1 off-chip latency plus Eq. 2 on-chip latency under
// the optimistic compact placement given by dist. apki is the VC's total
// access intensity; ratio its miss-ratio curve.
//
// All LLC accesses pay the on-chip distance to the VC's banks; misses
// additionally pay memory latency. Growing a VC therefore trades misses
// against hops, producing the U-shaped curve of Fig. 5.
func TotalLatencyCurve(ratio curves.Curve, apki float64, dist curves.Curve, m LatencyModel, maxLines float64) curves.Curve {
	xs := knotUnion(ratio, dist, maxLines)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		miss := ratio.Eval(x)
		onChip := apki * dist.Eval(x) * m.HopLatency * m.RoundTrip
		offChip := apki * miss * m.MemLatency
		ys[i] = onChip + offChip
	}
	return curves.New(xs, ys)
}

// MissLatencyCurve builds the miss-cost-only curve Jigsaw allocates from
// (off-chip latency alone, no on-chip term).
func MissLatencyCurve(ratio curves.Curve, apki float64, m LatencyModel, maxLines float64) curves.Curve {
	xs := knotUnion(ratio, curves.Constant(0, maxLines), maxLines)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = apki * ratio.Eval(x) * m.MemLatency
	}
	return curves.New(xs, ys)
}

// knotUnion merges the knot sets of two curves, clipped to [0, maxLines],
// always including both endpoints.
func knotUnion(a, b curves.Curve, maxLines float64) []float64 {
	return knotUnionInto(nil, a, b, maxLines)
}
