package resultstore

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// nShards is the memory tier's fixed shard count; a power of two so the key
// hash maps to a shard with a mask. 16 is plenty for the per-core HTTP
// handler counts a single process sees.
const nShards = 16

// MemTier is the fast head tier of every chain: a sharded LRU of
// serialized results. Keys are spread over independently locked shards so
// hot lookups do not serialize; coalescing of concurrent misses is the
// chain head's job, not the tier's. A MemTier must not be copied.
type MemTier struct {
	shards [nShards]shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
}

// shard is one lock's worth of LRU state.
type shard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *entry
	idx map[string]*list.Element
}

type entry struct {
	key string
	val []byte
}

// MemoryTier builds a memory tier holding up to capacity entries (minimum
// nShards, so every shard holds at least one).
func MemoryTier(capacity int) *MemTier {
	if capacity < nShards {
		capacity = nShards
	}
	m := &MemTier{}
	per := capacity / nShards
	extra := capacity % nShards
	for i := range m.shards {
		s := &m.shards[i]
		s.cap = per
		if i < extra {
			s.cap++
		}
		s.lru = list.New()
		s.idx = map[string]*list.Element{}
	}
	return m
}

// shardFor maps a key to its shard. The hash is fixed (no per-process seed),
// so which entries a small tier evicts is the same in every process.
func (m *MemTier) shardFor(key string) *shard {
	return &m.shards[fnv1a(key)&(nShards-1)]
}

// fnv1a is the 32-bit FNV-1a hash of key (the hash/fnv New32a function),
// computed over the string in place.
func fnv1a(key string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// Name implements Tier.
func (m *MemTier) Name() string { return "memory" }

// Get implements Tier. The returned slice is shared and must not be
// modified.
func (m *MemTier) Get(key string) ([]byte, bool) {
	v, ok := m.Peek(key)
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return v, true
}

// Peek is Get without the hit/miss counters: the chain's uncounted re-probe
// inside a flight whose triggering lookup was already counted.
func (m *MemTier) Peek(key string) ([]byte, bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	var val []byte
	el, ok := s.idx[key]
	if ok {
		s.lru.MoveToFront(el)
		// Read under the lock: Put's refresh branch writes entry.val in
		// place.
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	return val, ok
}

// Put implements Tier: insert (or refresh) a key, evicting from the tail of
// the key's shard when over capacity.
func (m *MemTier) Put(key string, val []byte) {
	s := m.shardFor(key)
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		old := el.Value.(*entry)
		m.bytes.Add(int64(len(val) - len(old.val)))
		old.val = val
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.idx[key] = s.lru.PushFront(&entry{key: key, val: val})
	m.bytes.Add(int64(len(key) + len(val)))
	var evicted int64
	for s.lru.Len() > s.cap {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.idx, e.key)
		m.bytes.Add(-int64(len(e.key) + len(e.val)))
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		m.evictions.Add(evicted)
	}
}

// Keys returns the cached content addresses, in no particular order, for
// manifest export. Shards are locked one at a time, so the snapshot is only
// per-shard consistent — fine for corpus manifest export, where a key that
// races in or out is a key the fetcher tolerates missing anyway.
func (m *MemTier) Keys() []string {
	out := make([]string, 0, m.Len())
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry).key)
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of cached entries.
func (m *MemTier) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats implements Tier. Bytes counts key and value bytes per entry, so it
// is comparable to a disk tier's per-entry-file accounting.
func (m *MemTier) Stats() TierStats {
	return TierStats{
		Name:      "memory",
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Entries:   m.Len(),
		Bytes:     m.bytes.Load(),
	}
}
