package resultstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// BenchmarkStoreWriteRead drives the persistent tiers through the serving
// pattern — write a corpus of near-identical entries (neighboring sweep
// cells), read every entry back verified — so the chunked tier's
// split+compress+dedup cost is visible next to the whole-entry tier it
// replaces. The stored metric reports physical occupancy per logical byte.
//
// "disk" and "chunked" re-put the same 16 entries on every iteration, so
// after the first one every chunk deduplicates. "chunked-fresh" puts 16
// new neighboring cells on every iteration, as warm-mixed's fresh writes
// do, into a store that already holds their neighbors: each new cell
// shares the body but carries its own header and one changed field in the
// middle, so a few of its chunks are new. It reports the chunk work that
// costs, compressed/op and chunkwrites/op, and the files the op's Puts
// created, files/op, next to chunks/op, the chunks the op's payloads hold;
// set-up work is not counted.
func BenchmarkStoreWriteRead(b *testing.B) {
	const n, size = 16, 8 << 10
	vals := corpus(n, size)

	// run times, per iteration i, a Put of every entry j then a Get of each.
	run := func(b *testing.B, tier Tier, key func(i, j int) string, val func(i, j int) []byte) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				tier.Put(key(i, j), val(i, j))
			}
			for j := 0; j < n; j++ {
				if _, ok := tier.Get(key(i, j)); !ok {
					b.Fatalf("%s unreadable", key(i, j))
				}
			}
		}
		b.StopTimer()
		st := tier.Stats()
		b.ReportMetric(float64(st.Bytes)/float64(st.LogicalBytes), "stored/logical")
	}
	fixedKey := func(_, j int) string { return fmt.Sprintf("key-%d", j) }
	fixedVal := func(_, j int) []byte { return vals[j] }

	b.Run("disk", func(b *testing.B) {
		d, err := OpenDisk(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, d, fixedKey, fixedVal)
	})
	b.Run("chunked", func(b *testing.B) {
		defer steadyCodecPools()()
		d, err := OpenChunkedDisk(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, d, fixedKey, fixedVal)
	})
	b.Run("chunked-fresh", func(b *testing.B) {
		defer steadyCodecPools()()
		d, err := OpenChunkedDisk(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		for j, v := range vals {
			d.Put(fixedKey(0, j), v)
		}
		compressed0, written0, files0 := d.Work()
		bufs := make([][]byte, n) // one reused payload buffer per cell slot
		cell := func(i, j int) []byte {
			v := fmt.Appendf(bufs[j][:0], "cell-%08d:", i*n+j)
			v = append(v, vals[0][len("entry-0000:"):]...)
			copy(v[len(v)/2:], fmt.Sprintf("%08x", i*n+j))
			bufs[j] = v
			return v
		}
		run(b, d, func(i, j int) string { return fmt.Sprintf("fresh-%d-%d", i, j) }, cell)
		compressed, written, files := d.Work()
		chunks := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				chunks += len(splitChunks(cell(i, j)))
			}
		}
		b.ReportMetric(float64(compressed-compressed0)/float64(b.N), "compressed/op")
		b.ReportMetric(float64(written-written0)/float64(b.N), "chunkwrites/op")
		b.ReportMetric(float64(files-files0)/float64(b.N), "files/op")
		b.ReportMetric(float64(chunks)/float64(b.N), "chunks/op")
	})
}

// steadyCodecPools runs the rest of a sub-benchmark on one P with both
// codec pools filled, and returns the function that restores GOMAXPROCS.
// sync.Pool keeps a codec per P and lets no other P take it, so on several
// Ps a timed run allocates a new writer (about 800 KB) whenever a Put's
// syscalls move it to a P that has none: B/op then varies by up to two
// writers per run, more than the gate's bound. On one P, with the pools
// filled after the pre-run GC, the timed run allocates no codec.
func steadyCodecPools() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	var comp bytes.Buffer
	compressChunk(&comp, []byte("warm"))
	if _, err := inflateChunk(make([]byte, chunkMax), bytes.NewReader(comp.Bytes())); err != nil {
		panic(err)
	}
	return func() { runtime.GOMAXPROCS(prev) }
}

// BenchmarkTierChainHit times hits through the tier chain on the warm
// serving path. "memory" reads a Zipf-skewed key set, resident in the
// memory tier of Chain(MemoryTier(n), disk), from four concurrent readers:
// one op is one pass over the draw sequence by every reader, the same work
// at any core count. The readers start before the timer, so an op
// allocates nothing and B/op and allocs/op stay exact (b.RunParallel's
// per-call goroutine start-up does not, over the gate's 5 iterations).
// "disk-promote" serves every lookup from the plain disk tier behind a
// memory tier too small to hold it, and promotes it: one op is one pass
// over 64 keys. "chunked-promote" is the same over the chunked tier, the
// read path of warm-mixed's memory misses.
func BenchmarkTierChainHit(b *testing.B) {
	const nKeys = 1024
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	vals := corpus(nKeys, 8<<10)
	open := func(b *testing.B, memCap int, disk Tier, err error) *TierChain {
		if err != nil {
			b.Fatal(err)
		}
		chain := Chain(MemoryTier(memCap), disk)
		for i, k := range keys {
			chain.Put(k, vals[i])
		}
		return chain
	}
	openDisk := func(b *testing.B, memCap int) *TierChain {
		disk, err := OpenDisk(b.TempDir(), 0)
		return open(b, memCap, disk, err)
	}

	b.Run("memory", func(b *testing.B) {
		// Twice the key count, so no shard overflows and every key stays
		// resident.
		chain := openDisk(b, 2*nKeys)
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
	promote := func(b *testing.B, chain *TierChain) {
		const batch = 64
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
	}
	b.Run("disk-promote", func(b *testing.B) { promote(b, openDisk(b, 0)) })
	b.Run("chunked-promote", func(b *testing.B) {
		disk, err := OpenChunkedDisk(b.TempDir(), 0)
		promote(b, open(b, 0, disk, err))
	})
}
