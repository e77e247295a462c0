// Package resultcache is a sharded, content-addressed LRU cache of
// serialized simulation results with singleflight coalescing.
//
// The serving path treats simulation as an expensive pure function of a
// request hash (see the request types in the root package): identical hashes
// mean identical bytes, so a cache in front of the simulator is correct by
// construction. Keys are spread over independently locked shards so hot
// lookups do not serialize, and concurrent misses on the same key coalesce
// onto a single computation — a thundering herd of identical requests
// triggers exactly one simulation, with every caller handed the same bytes.
package resultcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// nShards is the fixed shard count; a power of two so the key hash maps to a
// shard with a mask. 16 is plenty for the per-core HTTP handler counts a
// single process sees.
const nShards = 16

// Cache is the sharded LRU. Create with New; a Cache must not be copied.
type Cache struct {
	shards [nShards]shard

	// flight coalesces concurrent computations of the same key across all
	// shards (misses are rare and computations are long, so a single lock is
	// not a bottleneck — shards exist for the hit path).
	flightMu sync.Mutex
	flight   map[string]*call

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
	inflight  atomic.Int64
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

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// New builds a cache holding up to capacity entries (minimum nShards, so
// every shard holds at least one).
func New(capacity int) *Cache {
	if capacity < nShards {
		capacity = nShards
	}
	c := &Cache{flight: map[string]*call{}}
	per := capacity / nShards
	extra := capacity % nShards
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		if i < extra {
			s.cap++
		}
		s.lru = list.New()
		s.idx = map[string]*list.Element{}
	}
	return c
}

// shardFor maps a key to its shard. The hash is fixed (no per-process seed),
// so which entries a small cache evicts is the same in every process.
func (c *Cache) shardFor(key string) *shard {
	return &c.shards[fnv1a(key)&(nShards-1)]
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

// Get returns the cached bytes for key, if present. The returned slice is
// shared and must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	var val []byte
	el, ok := s.idx[key]
	if ok {
		s.lru.MoveToFront(el)
		// Read under the lock: put's refresh branch writes entry.val in
		// place.
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// GetOrCompute returns the cached bytes for key, computing and caching them
// on a miss. Concurrent calls for the same key run compute exactly once: one
// caller becomes the leader and the rest wait for its result (counted as
// coalesced hits). Errors are returned to the leader and every waiter but
// are never cached, so a later request retries. If ctx is canceled while
// waiting on another caller's computation, GetOrCompute returns ctx.Err();
// the leader's compute itself is responsible for honoring ctx.
//
// hit reports whether the bytes came from cache (or a coalesced flight)
// rather than from this caller's own compute. The returned slice is shared
// and must not be modified.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if v, ok := c.Get(key); ok {
		return v, true, nil
	}
	// Miss (already counted by Get): join or start a flight.
	return c.Compute(ctx, key, compute)
}

// Compute is GetOrCompute without the initial counting lookup: it joins an
// in-flight computation for key if one exists, and otherwise leads one,
// caching the result. Callers that already observed a miss via Get (e.g. an
// async job created for that miss) use Compute so the miss is counted once.
// The leader re-checks the cache (uncounted) before computing, since another
// flight may have landed between the caller's lookup and this call.
func (c *Cache) Compute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	c.flightMu.Lock()
	if cl, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-cl.done:
			return cl.val, true, cl.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.flight[key] = cl
	c.flightMu.Unlock()

	if v, ok := c.peek(key); ok {
		cl.val = v
		hit = true
	} else {
		c.inflight.Add(1)
		cl.val, cl.err = compute()
		c.inflight.Add(-1)
		if cl.err == nil {
			c.Put(key, cl.val)
		}
	}
	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(cl.done)
	return cl.val, hit, cl.err
}

// Peek is Get without the hit/miss counters. Tier compositions (see
// internal/resultstore) use it for uncounted re-probes inside a flight whose
// triggering lookup was already counted.
func (c *Cache) Peek(key string) ([]byte, bool) {
	return c.peek(key)
}

// peek is Get without counters.
func (c *Cache) peek(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	return nil, false
}

// Put inserts (or refreshes) a key without going through a flight, evicting
// from the tail of the key's shard when over capacity. Tiered stores use it
// to promote entries that were computed elsewhere (e.g. read from a disk
// tier); most callers want GetOrCompute.
func (c *Cache) Put(key string, val []byte) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		old := el.Value.(*entry)
		c.bytes.Add(int64(len(val) - len(old.val)))
		old.val = val
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.idx[key] = s.lru.PushFront(&entry{key: key, val: val})
	c.bytes.Add(int64(len(key) + len(val)))
	var evicted int64
	for s.lru.Len() > s.cap {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.idx, e.key)
		c.bytes.Add(-int64(len(e.key) + len(e.val)))
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Keys returns the cached keys, in no particular order. Shards are locked
// one at a time, so the snapshot is only per-shard consistent — fine for
// its use (corpus manifest export), where a key that races in or out is a
// key the fetcher tolerates missing anyway.
func (c *Cache) Keys() []string {
	out := make([]string, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry).key)
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from cache; Misses counts lookups that fell
	// through to a computation (coalesced or not).
	Hits, Misses int64
	// Coalesced counts callers that waited on another caller's in-flight
	// computation instead of starting their own.
	Coalesced int64
	// Evictions counts LRU evictions.
	Evictions int64
	// Inflight is the current number of distinct computations running.
	Inflight int64
	// Entries and Bytes describe current occupancy. Bytes counts key and
	// value bytes per entry, so it is comparable to a disk tier's
	// per-entry-file accounting.
	Entries int
	Bytes   int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Inflight:  c.inflight.Load(),
		Entries:   c.Len(),
		Bytes:     c.bytes.Load(),
	}
}
