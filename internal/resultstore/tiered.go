package resultstore

import (
	"cdcs/internal/resultcache"
)

// MemTier adapts internal/resultcache's sharded LRU to the Tier interface:
// the fast head tier of every chain.
type MemTier struct {
	c *resultcache.Cache
}

// MemoryTier builds a memory tier holding up to capacity entries.
func MemoryTier(capacity int) *MemTier {
	return &MemTier{c: resultcache.New(capacity)}
}

// Name implements Tier.
func (m *MemTier) Name() string { return "memory" }

// Get implements Tier.
func (m *MemTier) Get(key string) ([]byte, bool) { return m.c.Get(key) }

// Peek is Get without the hit/miss counters.
func (m *MemTier) Peek(key string) ([]byte, bool) { return m.c.Peek(key) }

// Put implements Tier.
func (m *MemTier) Put(key string, val []byte) { m.c.Put(key, val) }

// Keys returns the cached content addresses, for manifest export.
func (m *MemTier) Keys() []string { return m.c.Keys() }

// Stats implements Tier.
func (m *MemTier) Stats() TierStats {
	st := m.c.Stats()
	return TierStats{
		Name:      "memory",
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
	}
}
