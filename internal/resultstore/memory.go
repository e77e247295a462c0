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
// chain head's job, not the tier's. Each shard holds its share of an entry
// capacity and, with WithByteBudget, of a byte budget. A MemTier must not
// be copied.
type MemTier struct {
	shards [nShards]shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// shard is one lock's worth of LRU state.
type shard struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64      // key+value bytes the shard may hold; negative = no bound
	bytes    int64      // key+value bytes held
	lru      *list.List // front = most recent; values are *entry
	idx      map[string]*list.Element
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
		s.maxBytes = -1
		s.lru = list.New()
		s.idx = map[string]*list.Element{}
	}
	return m
}

// WithByteBudget bounds the key+value bytes the tier holds as well as its
// entries: each shard evicts from its LRU tail while it holds more than
// maxBytes/16 bytes, but always keeps the entry just stored, so an entry
// larger than a shard's share is kept alone and the tier never holds more
// than maxBytes plus one entry per shard. maxBytes <= 0 leaves the tier
// bounded by entries only. Call it before the tier is in use; it returns m.
func (m *MemTier) WithByteBudget(maxBytes int64) *MemTier {
	per := int64(-1)
	if maxBytes > 0 {
		per = maxBytes / nShards
	}
	for i := range m.shards {
		m.shards[i].maxBytes = per
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
// the key's shard while it is over its entry or byte share.
func (m *MemTier) Put(key string, val []byte) {
	s := m.shardFor(key)
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		old := el.Value.(*entry)
		s.bytes += int64(len(val) - len(old.val))
		old.val = val
		s.lru.MoveToFront(el)
	} else {
		s.idx[key] = s.lru.PushFront(&entry{key: key, val: val})
		s.bytes += int64(len(key) + len(val))
	}
	var evicted int64
	// The byte rule stops at one entry: the front, just stored, is never
	// its own victim.
	for s.lru.Len() > s.cap || (s.maxBytes >= 0 && s.bytes > s.maxBytes && s.lru.Len() > 1) {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.idx, e.key)
		s.bytes -= int64(len(e.key) + len(e.val))
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
	n, _ := m.occupancy()
	return n
}

// occupancy sums the shards' entries and key+value bytes, one shard lock
// at a time.
func (m *MemTier) occupancy() (entries int, bytes int64) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		entries += s.lru.Len()
		bytes += s.bytes
		s.mu.Unlock()
	}
	return entries, bytes
}

// Stats implements Tier. Bytes counts key and value bytes per entry, so it
// is comparable to a disk tier's per-entry-file accounting.
func (m *MemTier) Stats() TierStats {
	entries, bytes := m.occupancy()
	return TierStats{
		Name:      "memory",
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
