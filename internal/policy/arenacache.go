package policy

import (
	"runtime"
	"slices"
	"sync"
)

// arenaCache keeps the process's idle schedule arenas so that served cells
// and campaign jobs build on warm buffers, as the runtime's reconfiguration
// does epoch after epoch on one chip. What it retains is bounded by
// construction: at most GOMAXPROCS arenas (one per CPU that can be building
// a schedule), each handed out again only to a chip with the bank count it
// last served, so an arena never carries a larger chip's capacity into a
// smaller one, and the number of distinct sizes served does not grow it.
type arenaCache struct {
	mu   sync.Mutex
	idle []*Arena // oldest first
}

// arenas is the process-wide cache behind GetArena and PutArena.
var arenas arenaCache

// GetArena returns an idle arena that last served a chip of banks banks, or
// a fresh one. Hand it back with PutArena once nothing built with it is
// still in use.
func GetArena(banks int) *Arena { return arenas.get(banks) }

// PutArena returns an arena to the process cache. When the cache is full
// its oldest entry is dropped. The caller must not use ar afterwards.
func PutArena(ar *Arena) { arenas.put(ar, runtime.GOMAXPROCS(0)) }

// get takes the most recently cached arena tagged with banks, if any.
func (c *arenaCache) get(banks int) *Arena {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.idle) - 1; i >= 0; i-- {
		if ar := c.idle[i]; ar.banks == banks {
			c.idle = slices.Delete(c.idle, i, i+1)
			return ar
		}
	}
	return NewArena()
}

// put caches ar, dropping the oldest entries so that at most limit stay.
func (c *arenaCache) put(ar *Arena, limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle = append(c.idle, ar)
	if drop := len(c.idle) - max(limit, 1); drop > 0 {
		n := copy(c.idle, c.idle[drop:])
		clear(c.idle[n:])
		c.idle = c.idle[:n]
	}
}
