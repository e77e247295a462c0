package mesh

import (
	"fmt"
	"runtime"
	"testing"
)

// topoAllocBytes measures the heap bytes a topology construction allocates.
func topoAllocBytes(build func() *Topology) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	topo := build()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(topo)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTopologyMemory is the acceptance check for the memory model: topology
// construction is O(tiles) bytes at every size. An O(tiles²) structure (a
// distance matrix or per-center orderings) would need 4096× more at 64×64
// and ~2 GB at 128×128, so it trips the per-tile bound by orders of
// magnitude; the scaling check (each doubling of the side grows the bytes
// ~4×, not ~16×) guards against one sneaking back in under that bound.
func TestTopologyMemory(t *testing.T) {
	const perTile, slack = 128, 4 << 10
	var prev uint64
	for _, side := range []int{8, 16, 32, 64, 128} {
		n := uint64(side * side)
		got := topoAllocBytes(func() *Topology { return New(side, side) })
		if limit := perTile*n + slack; got > limit {
			t.Errorf("%dx%d topology construction allocated %d bytes, want <= %d (O(tiles))", side, side, got, limit)
		}
		if prev > 0 && got > 8*prev {
			t.Errorf("construction scaled %dB -> %dB from %dx%d to %dx%d: worse than O(tiles)",
				prev, got, side/2, side/2, side, side)
		}
		prev = got
	}
}

// BenchmarkNewTopology gates topology-construction cost and footprint from
// the paper's 8×8 chip to the 128×128 sweep ceiling; B/op must stay O(tiles).
func BenchmarkNewTopology(b *testing.B) {
	for _, side := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(side, side)
			}
		})
	}
}

// TestSharedMemoizesBounded checks that Shared hands every caller of one
// size the same topology, equal to a New one, and keeps only the
// sharedTopologies most recently used sizes.
func TestSharedMemoizesBounded(t *testing.T) {
	a := Shared(5, 3)
	if Shared(5, 3) != a {
		t.Fatal("two calls for 5x3 built two topologies")
	}
	if b := New(5, 3); a.Width() != 5 || a.Height() != 3 || a.MeanMemDistance() != b.MeanMemDistance() {
		t.Fatal("shared 5x3 differs from New(5, 3)")
	}
	for w := 1; w <= sharedTopologies; w++ {
		Shared(w, 1)
		Shared(5, 3) // keep 5x3 the most recently used
	}
	if Shared(5, 3) != a {
		t.Error("a size in constant use fell out of the memo")
	}
	shared.mu.Lock()
	n := len(shared.topos)
	shared.mu.Unlock()
	if n > sharedTopologies {
		t.Errorf("memo holds %d topologies, bound %d", n, sharedTopologies)
	}
	first := Shared(1, 1)
	for w := 2; w <= sharedTopologies+1; w++ {
		Shared(w, 2)
	}
	if Shared(1, 1) == first {
		t.Error("least recently used size survived more than sharedTopologies newer ones")
	}
}
