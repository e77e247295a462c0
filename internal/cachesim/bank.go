package cachesim

import (
	"fmt"
)

// PartID identifies a bank partition. Partition 0 is always valid (the
// unpartitioned default).
type PartID int

// line is one cache line's bookkeeping in a bank.
type line struct {
	tag   Addr
	part  PartID
	valid bool
	// lru is a per-set timestamp; larger is more recent.
	lru uint64
}

// Bank is a set-associative cache bank with line-granularity partitioning in
// the spirit of Vantage (§III): each line is tagged with its partition, each
// partition has a target allocation, and replacement preferentially evicts
// from partitions that exceed their targets. This enforces partition sizes
// without per-set reservations, which is the property CDCS relies on.
type Bank struct {
	sets  int
	ways  int
	lines []line // sets*ways, set-major

	clock uint64

	// target[p] is the partition's allocation in lines; occupancy[p] its
	// current size.
	target    map[PartID]int
	occupancy map[PartID]int

	// Statistics.
	hits, misses int64
}

// NewBank builds a bank with the given geometry. It panics on non-positive
// geometry: bank construction is static configuration.
func NewBank(sets, ways int) *Bank {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cachesim: invalid bank geometry %dx%d", sets, ways))
	}
	return &Bank{
		sets:      sets,
		ways:      ways,
		lines:     make([]line, sets*ways),
		target:    map[PartID]int{},
		occupancy: map[PartID]int{},
	}
}

// Sets returns the number of sets.
func (b *Bank) Sets() int { return b.sets }

// SetTarget sets a partition's allocation in lines. Targets are advisory
// quotas: replacement drives occupancy toward them.
func (b *Bank) SetTarget(p PartID, lines int) {
	if lines < 0 {
		lines = 0
	}
	b.target[p] = lines
}

// setSlice returns the lines of the set holding addr.
func (b *Bank) setSlice(addr Addr) []line {
	set := int(addr) % b.sets
	if set < 0 {
		set = -set
	}
	return b.lines[set*b.ways : (set+1)*b.ways]
}

// Access looks up addr on behalf of partition p, inserting it on a miss.
// It reports whether the access hit.
func (b *Bank) Access(addr Addr, p PartID) bool {
	b.clock++
	set := b.setSlice(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			b.hits++
			set[i].lru = b.clock
			// A reclassified line (page moved between VCs) migrates its
			// accounting to the accessing partition.
			if set[i].part != p {
				b.occupancy[set[i].part]--
				b.occupancy[p]++
				set[i].part = p
			}
			return true
		}
	}
	b.misses++
	b.insert(set, addr, p)
	return false
}

// Contains reports whether addr is resident (without touching LRU state).
func (b *Bank) Contains(addr Addr) bool {
	set := b.setSlice(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return true
		}
	}
	return false
}

// insert places addr into the set, choosing a victim per partition pressure:
// invalid lines first, then the LRU line of the partition most over its
// target, then global LRU as a fallback.
func (b *Bank) insert(set []line, addr Addr, p PartID) {
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = b.pickVictim(set)
		b.occupancy[set[victim].part]--
	}
	set[victim] = line{tag: addr, part: p, valid: true, lru: b.clock}
	b.occupancy[p]++
}

// pickVictim implements the Vantage-like policy. Overage is measured as
// occupancy/target ratio so small partitions are not starved by absolute
// comparisons; partitions with zero target are maximally evictable.
func (b *Bank) pickVictim(set []line) int {
	bestIdx := -1
	bestRatio := -1.0
	var bestLRU uint64
	for i := range set {
		p := set[i].part
		tgt := b.target[p]
		var ratio float64
		if tgt <= 0 {
			// No allocation: most evictable.
			ratio = 1e18
		} else {
			ratio = float64(b.occupancy[p]) / float64(tgt)
		}
		switch {
		case ratio > bestRatio+1e-12:
			bestIdx, bestRatio, bestLRU = i, ratio, set[i].lru
		case ratio > bestRatio-1e-12 && set[i].lru < bestLRU:
			bestIdx, bestLRU = i, set[i].lru
		}
	}
	return bestIdx
}

// InvalidateAddr drops a single line if resident, reporting whether it was.
func (b *Bank) InvalidateAddr(addr Addr) bool {
	set := b.setSlice(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			b.occupancy[set[i].part]--
			set[i].valid = false
			return true
		}
	}
	return false
}

// WalkSet invalidates lines in the given set for which keep returns false,
// returning the number invalidated. Background invalidation walks the array
// one set at a time with this.
func (b *Bank) WalkSet(set int, keep func(Addr, PartID) bool) int {
	if set < 0 || set >= b.sets {
		return 0
	}
	lines := b.lines[set*b.ways : (set+1)*b.ways]
	n := 0
	for i := range lines {
		if lines[i].valid && !keep(lines[i].tag, lines[i].part) {
			b.occupancy[lines[i].part]--
			lines[i].valid = false
			n++
		}
	}
	return n
}
