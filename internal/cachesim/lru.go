// Package cachesim provides the cache-array substrate: an exact LRU
// stack-distance simulator (ground truth for monitor validation) and a
// set-associative, partition-aware bank model in the spirit of Vantage.
//
// The epoch-level performance model (internal/perfmodel) works on analytic
// miss curves; this package exists so that monitors (internal/monitor) and
// the reconfiguration machinery can be exercised against a real array with
// real replacement behaviour.
package cachesim

// Addr is a cache-line address (block address, not byte address).
type Addr uint64

// ColdMiss is the stack distance reported for a first-touch access.
const ColdMiss = -1

// LRUStack is an exact (fully associative) LRU stack-distance simulator.
// Access returns the reuse (stack) distance of each reference, from which
// the miss curve of any cache size follows: an access with stack distance d
// hits in a fully-associative LRU cache of size > d.
type LRUStack struct {
	// stack[0] is the most recently used line.
	stack []Addr
	// pos maps address to its current depth for O(1) membership checks; the
	// depth itself may be stale and is re-resolved on access.
	pos map[Addr]bool

	// hist[d] counts accesses with stack distance d (capped).
	hist []int64
	cold int64
	n    int64
}

// NewLRUStack returns a simulator that tracks distances up to maxDist lines;
// deeper reuses are counted as cold misses (they miss in any cache of
// interest anyway).
func NewLRUStack(maxDist int) *LRUStack {
	return &LRUStack{
		pos:  make(map[Addr]bool),
		hist: make([]int64, maxDist),
	}
}

// Access references addr and returns its stack distance (ColdMiss for first
// touches or reuses beyond maxDist).
func (s *LRUStack) Access(addr Addr) int {
	s.n++
	if s.pos[addr] {
		// Find current depth by scanning: exact but O(depth). Monitor
		// validation streams are small enough for this to be fine.
		for d, a := range s.stack {
			if a == addr {
				copy(s.stack[1:d+1], s.stack[0:d])
				s.stack[0] = addr
				if d < len(s.hist) {
					s.hist[d]++
					return d
				}
				s.cold++
				return ColdMiss
			}
		}
	}
	s.pos[addr] = true
	s.stack = append(s.stack, 0)
	copy(s.stack[1:], s.stack[0:len(s.stack)-1])
	s.stack[0] = addr
	s.cold++
	return ColdMiss
}

// MissRatioAt returns the miss ratio of a fully-associative LRU cache with
// the given capacity in lines: the fraction of accesses whose stack distance
// was >= capacity (cold misses always miss).
func (s *LRUStack) MissRatioAt(capacity int) float64 {
	if s.n == 0 {
		return 0
	}
	if capacity < 0 {
		capacity = 0
	}
	var hits int64
	limit := capacity
	if limit > len(s.hist) {
		limit = len(s.hist)
	}
	for d := 0; d < limit; d++ {
		hits += s.hist[d]
	}
	return float64(s.n-hits) / float64(s.n)
}
