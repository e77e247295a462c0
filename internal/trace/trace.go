// Package trace generates synthetic cache-line address streams whose LRU
// stack-distance distribution matches a target miss-ratio curve.
//
// For an LRU cache of capacity c lines, the miss ratio equals the probability
// that an access's stack distance is >= c. Inverting that relationship lets
// us sample stack distances directly from any miss-ratio curve in
// internal/workload and synthesize a stream that reproduces it — this is the
// stand-in for SPEC memory traces, and it is what drives the monitor
// (UMON/GMON) validation experiments.
//
// The LRU stack is maintained as a Fenwick tree over recency slots, so both
// "select the d-th most recently used line" and move-to-front cost O(log n)
// rather than O(n) — workloads with multi-megabyte working sets generate
// millions of accesses per second.
package trace

import (
	"math/rand"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
)

// Generator emits an address stream matching a miss-ratio curve.
type Generator struct {
	ratio curves.Curve
	rng   *rand.Rand
	next  cachesim.Addr

	// floorRatio is the curve's terminal value: the fraction of accesses
	// that miss at any capacity (streaming/cold component).
	floorRatio float64
	// maxDist is the deepest reuse the curve can produce (the knee where it
	// flattens to the floor); the stack never needs to grow beyond it.
	maxDist int

	// Recency structure: slot indices increase with recency (clock order).
	// bit is a Fenwick tree counting live slots; addrAt maps slot→address.
	bit    []int
	addrAt []cachesim.Addr
	nSlots int
	clock  int // next slot to assign (1-based slots in the tree)
	live   int
}

// NewGenerator builds a generator for the given miss-ratio curve (X in
// lines, Y in [0,1], non-increasing). Base disambiguates address spaces so
// multiple generators can share one cache without aliasing.
func NewGenerator(ratio curves.Curve, base cachesim.Addr, rng *rand.Rand) *Generator {
	floor := ratio.Eval(ratio.MaxX())
	maxDist := 0
	for i := ratio.Len() - 1; i >= 0; i-- {
		x, y := ratio.Knot(i)
		if y > floor+1e-12 {
			// The flat floor starts at the next knot (piecewise-linear
			// descent ends there).
			if i+1 < ratio.Len() {
				x, _ = ratio.Knot(i + 1)
			}
			maxDist = int(x)
			break
		}
	}
	g := &Generator{
		ratio:      ratio,
		rng:        rng,
		next:       base,
		floorRatio: floor,
		maxDist:    maxDist,
	}
	g.nSlots = 4 * (maxDist + 2)
	if g.nSlots < 1024 {
		g.nSlots = 1024
	}
	g.bit = make([]int, g.nSlots+1)
	g.addrAt = make([]cachesim.Addr, g.nSlots+1)
	return g
}

// Next returns the next address in the stream.
func (g *Generator) Next() cachesim.Addr {
	u := g.rng.Float64()
	// With probability floorRatio the access misses everywhere: fresh line.
	if u < g.floorRatio || g.live == 0 {
		return g.fresh()
	}
	// Otherwise sample a stack distance d with P(distance >= x) = ratio(x):
	// solve ratio(d) = u on the non-increasing curve.
	d := g.invert(u)
	if d >= g.live {
		return g.fresh()
	}
	// The d-th most recent live slot is the (live-d)-th oldest.
	slot := g.findKth(g.live - d)
	addr := g.addrAt[slot]
	g.bitAdd(slot, -1)
	g.pushTop(addr)
	return addr
}

// fresh issues a never-seen address and pushes it on the stack. Lines deeper
// than maxDist can never be reselected, so the oldest slot is dropped once
// the stack is full.
func (g *Generator) fresh() cachesim.Addr {
	addr := g.next
	g.next++
	g.pushTop(addr)
	g.live++
	if g.live > g.maxDist+1 {
		oldest := g.findKth(1)
		g.bitAdd(oldest, -1)
		g.live--
	}
	return addr
}

// pushTop places addr in the newest recency slot, compacting when the clock
// runs out of slots.
func (g *Generator) pushTop(addr cachesim.Addr) {
	if g.clock >= g.nSlots {
		g.compact()
	}
	g.clock++
	g.addrAt[g.clock] = addr
	g.bitAdd(g.clock, 1)
}

// compact rebuilds the recency structure with live slots renumbered 1..live.
func (g *Generator) compact() {
	liveAddrs := make([]cachesim.Addr, 0, g.live)
	for slot := 1; slot <= g.clock; slot++ {
		if g.slotLive(slot) {
			liveAddrs = append(liveAddrs, g.addrAt[slot])
		}
	}
	for i := range g.bit {
		g.bit[i] = 0
	}
	for i, a := range liveAddrs {
		g.addrAt[i+1] = a
		g.bitAdd(i+1, 1)
	}
	g.clock = len(liveAddrs)
}

// slotLive reports whether a slot currently holds a live line.
func (g *Generator) slotLive(slot int) bool {
	return g.bitSum(slot)-g.bitSum(slot-1) > 0
}

// bitAdd adds delta at a 1-based slot.
func (g *Generator) bitAdd(slot, delta int) {
	for ; slot <= g.nSlots; slot += slot & (-slot) {
		g.bit[slot] += delta
	}
}

// bitSum returns the count of live slots in [1, slot].
func (g *Generator) bitSum(slot int) int {
	s := 0
	for ; slot > 0; slot -= slot & (-slot) {
		s += g.bit[slot]
	}
	return s
}

// findKth returns the slot of the k-th oldest live line (1-based) via
// Fenwick descent.
func (g *Generator) findKth(k int) int {
	pos := 0
	// Highest power of two <= nSlots.
	mask := 1
	for mask<<1 <= g.nSlots {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := pos + mask
		if next <= g.nSlots && g.bit[next] < k {
			pos = next
			k -= g.bit[pos]
		}
	}
	return pos + 1
}

// invert finds the smallest distance d such that ratio(d) <= u, by binary
// search over the non-increasing curve.
func (g *Generator) invert(u float64) int {
	lo, hi := 0.0, g.ratio.MaxX()
	if g.ratio.Eval(lo) <= u {
		return 0
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if g.ratio.Eval(mid) <= u {
			hi = mid
		} else {
			lo = mid
		}
	}
	return int(hi)
}
