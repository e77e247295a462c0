package resultstore

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := MemoryTier(64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", []byte("alpha"))
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len("a")+len("alpha")) {
		t.Errorf("stats = %+v", st)
	}
}

// storedBytes walks the shards and sums the actual stored sizes (key plus
// value), the quantity Stats().Bytes claims to track.
func storedBytes(c *MemTier) int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			n += int64(len(e.key) + len(e.val))
		}
		s.mu.Unlock()
	}
	return n
}

func TestShardHashIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "a", "compare/v1", fmt.Sprintf("%064x", 12345)} {
		h := fnv.New32a()
		h.Write([]byte(key))
		if got, want := fnv1a(key), h.Sum32(); got != want {
			t.Errorf("fnv1a(%q) = %#x, hash/fnv New32a = %#x", key, got, want)
		}
	}
}

// TestEvictionIsDeterministic: two small caches fed the same Put/Get
// sequence evict the same entries, because the shard hash has no
// per-process seed.
func TestEvictionIsDeterministic(t *testing.T) {
	run := func() []string {
		c := MemoryTier(16)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("%064x", i*7919)
			c.Put(key, []byte{byte(i)})
			c.Get(fmt.Sprintf("%064x", (i/2)*7919))
		}
		keys := c.Keys()
		slices.Sort(keys)
		return keys
	}
	a, b := run(), run()
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("same sequence left different key sets:\n%v\n%v", a, b)
	}
}

func TestByteAccountingMatchesStoredSizes(t *testing.T) {
	c := MemoryTier(2 * nShards)
	// Mixed key and value lengths, enough inserts to force evictions, plus
	// same-key refreshes that grow and shrink the value.
	for i := 0; i < 8*nShards; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%0*d", i%7, i)))
	}
	c.Put("key-0", []byte("grown-replacement-value"))
	c.Put("key-0", []byte("s"))
	st := c.Stats()
	if want := storedBytes(c); st.Bytes != want {
		t.Errorf("Stats().Bytes = %d, actual stored key+value bytes = %d", st.Bytes, want)
	}
	if st.Evictions == 0 {
		t.Error("test did not exercise eviction accounting")
	}
}

// shardKeys returns distinct keys that all map to the same shard of c.
func shardKeys(c *MemTier, n int) []string {
	target := c.shardFor(fmt.Sprint("seed"))
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shardFor(k) == target {
			out = append(out, k)
		}
	}
	return out
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 2 per shard; steer all keys onto one shard so eviction order
	// is fully observable.
	c := MemoryTier(2 * nShards)
	k := shardKeys(c, 3)

	c.Put(k[0], []byte("0"))
	c.Put(k[1], []byte("1"))
	// Touch k0 so k1 becomes least-recent, then overflow the shard.
	if _, ok := c.Get(k[0]); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(k[2], []byte("2"))

	if _, ok := c.Peek(k[1]); ok {
		t.Error("least-recently-used key survived eviction")
	}
	for _, want := range []string{k[0], k[2]} {
		if _, ok := c.Peek(want); !ok {
			t.Errorf("recently-used key %s evicted", want)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionBoundsOccupancy(t *testing.T) {
	const capacity = 2 * nShards
	c := MemoryTier(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("x"))
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, capacity)
	}
	if int(st.Evictions)+st.Entries != 10*capacity {
		t.Errorf("evictions(%d) + entries(%d) != inserts(%d)", st.Evictions, st.Entries, 10*capacity)
	}
	if want := storedBytes(c); st.Bytes != want {
		t.Errorf("bytes = %d, want %d (stored key+value bytes)", st.Bytes, want)
	}
}

func TestPutRefreshSameKey(t *testing.T) {
	c := MemoryTier(64)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("longer-v2"))
	v, ok := c.Get("k")
	if !ok || string(v) != "longer-v2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("k")+len("longer-v2")) || st.Evictions != 0 {
		t.Errorf("stats after refresh = %+v", st)
	}
}

func TestMemoryTierByteBound(t *testing.T) {
	// 100 bytes per shard, entries unbounded in practice.
	c := MemoryTier(1 << 16).WithByteBudget(100 * nShards)
	k := shardKeys(c, 4)
	put := func(key string, n int) { c.Put(key, make([]byte, n-len(key))) } // key+value = n

	put(k[0], 40)
	put(k[1], 40)
	if _, ok := c.Get(k[0]); !ok { // k1 becomes least recent
		t.Fatal("k0 missing before eviction")
	}
	put(k[2], 40) // 120 bytes: over the shard's 100
	if _, ok := c.Peek(k[1]); ok {
		t.Error("least-recently-used key survived the byte bound")
	}
	for _, want := range []string{k[0], k[2]} {
		if _, ok := c.Peek(want); !ok {
			t.Errorf("recently-used key %s evicted", want)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Errorf("after one byte eviction: %+v, want 1 eviction, 2 entries, 80 bytes", st)
	}

	// An entry over the shard's share evicts everything else and stays.
	put(k[3], 300)
	if _, ok := c.Peek(k[3]); !ok {
		t.Error("an entry larger than its shard's budget was not kept")
	}
	if st := c.Stats(); st.Evictions != 3 || st.Entries != 1 || st.Bytes != 300 {
		t.Errorf("after an oversized entry: %+v, want 3 evictions, 1 entry, 300 bytes", st)
	}

	// Mixed sizes over every shard: occupancy stays within the budget plus
	// one entry per shard, the accounting matches what is stored, and two
	// tiers fed the same keys keep the same keys.
	const budget, maxEntry = 4096, 700
	run := func() []string {
		c := MemoryTier(1 << 16).WithByteBudget(budget)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("%064x", i*7919)
			c.Put(key, make([]byte, (i*131)%(maxEntry-len(key))))
			c.Get(fmt.Sprintf("%064x", (i/2)*7919))
			if b := c.Stats().Bytes; b > budget+nShards*maxEntry {
				t.Fatalf("put %d: %d bytes held, bound %d", i, b, budget+nShards*maxEntry)
			}
		}
		st := c.Stats()
		if want := storedBytes(c); st.Bytes != want {
			t.Errorf("Stats().Bytes = %d, actual stored key+value bytes = %d", st.Bytes, want)
		}
		if int(st.Evictions)+st.Entries != 2000 {
			t.Errorf("evictions(%d) + entries(%d) != inserts(2000)", st.Evictions, st.Entries)
		}
		keys := c.Keys()
		slices.Sort(keys)
		return keys
	}
	a, b := run(), run()
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("same sequence left different key sets:\n%v\n%v", a, b)
	}

	// A non-positive budget leaves the tier bounded by entries only.
	u := MemoryTier(1 << 16).WithByteBudget(0)
	for i := 0; i < 64; i++ {
		u.Put(fmt.Sprintf("k%d", i), make([]byte, 1<<10))
	}
	if st := u.Stats(); st.Evictions != 0 || st.Entries != 64 {
		t.Errorf("budget 0: %+v, want 64 entries and no eviction", st)
	}
}
