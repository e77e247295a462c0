package resultstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkStoreWriteRead drives the persistent tiers through the serving
// pattern — write a corpus of near-identical entries (neighboring sweep
// cells), read every entry back verified — so the chunked tier's
// split+compress+dedup cost is visible next to the whole-entry tier it
// replaces. The stored metric reports physical occupancy per logical byte.
func BenchmarkStoreWriteRead(b *testing.B) {
	vals := corpus(16, 8<<10)
	var logical int64
	for _, v := range vals {
		logical += int64(len(v))
	}

	run := func(b *testing.B, open func(dir string) Tier) {
		dir := b.TempDir()
		tier := open(dir)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, v := range vals {
				tier.Put(fmt.Sprintf("key-%d", j), v)
			}
			for j := range vals {
				if _, ok := tier.Get(fmt.Sprintf("key-%d", j)); !ok {
					b.Fatalf("key-%d unreadable", j)
				}
			}
		}
		b.StopTimer()
		st := tier.Stats()
		b.ReportMetric(float64(st.Bytes)/float64(logical), "stored/logical")
	}

	b.Run("disk", func(b *testing.B) {
		run(b, func(dir string) Tier {
			d, err := OpenDisk(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
	b.Run("chunked", func(b *testing.B) {
		run(b, func(dir string) Tier {
			d, err := OpenChunkedDisk(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
}

// BenchmarkTierChainHit times hits through the tier chain on the warm
// serving path. "memory" reads a Zipf-skewed key set, resident in the
// memory tier of Chain(MemoryTier(n), disk), from four concurrent readers:
// one op is one pass over the draw sequence by every reader, the same work
// at any core count. The readers start before the timer, so an op
// allocates nothing and B/op and allocs/op stay exact (b.RunParallel's
// per-call goroutine start-up does not, over the gate's 5 iterations).
// "disk-promote" serves every lookup from the disk tier behind a memory
// tier too small to hold it, and promotes it: one op is one pass over 64
// keys.
func BenchmarkTierChainHit(b *testing.B) {
	const nKeys = 1024
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	vals := corpus(nKeys, 8<<10)
	open := func(b *testing.B, memCap int) *TierChain {
		disk, err := OpenDisk(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		chain := Chain(MemoryTier(memCap), disk)
		for i, k := range keys {
			chain.Put(k, vals[i])
		}
		return chain
	}

	b.Run("memory", func(b *testing.B) {
		// Twice the key count, so no shard overflows and every key stays
		// resident.
		chain := open(b, 2*nKeys)
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, nKeys-1)
		draws := make([]string, 4096)
		for i := range draws {
			draws[i] = keys[zipf.Uint64()]
		}
		const readers = 4
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			go func(off int) {
				for range start {
					for i := range draws {
						chain.Get(draws[(off+i)%len(draws)])
					}
					wg.Done()
				}
			}(r * len(draws) / readers)
		}
		defer close(start)
		pass := func() {
			wg.Add(readers)
			for r := 0; r < readers; r++ {
				start <- struct{}{}
			}
			wg.Wait()
		}
		pass() // warm the runtime's per-P wait queues outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.StopTimer()
		if n := chain.Stats().Tier("memory").Misses; n != 0 {
			b.Fatalf("%d lookups missed the memory tier", n)
		}
	})
	b.Run("disk-promote", func(b *testing.B) {
		const batch = 64
		chain := open(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				k := keys[(i*batch+j)%nKeys]
				if _, ok := chain.Get(k); !ok {
					b.Fatalf("%s unreadable", k)
				}
			}
		}
		b.StopTimer()
		if st := chain.Stats().Tier("disk"); st.Hits != int64(b.N*batch) {
			b.Fatalf("disk served %d of %d lookups; the memory tier absorbed some", st.Hits, b.N*batch)
		}
	})
}
