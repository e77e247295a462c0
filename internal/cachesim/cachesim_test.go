package cachesim

import (
	"math/rand"
	"testing"
)

func TestLRUStackBasics(t *testing.T) {
	s := NewLRUStack(64)
	if d := s.Access(1); d != ColdMiss {
		t.Errorf("first touch distance = %d, want cold", d)
	}
	if d := s.Access(1); d != 0 {
		t.Errorf("immediate reuse distance = %d, want 0", d)
	}
	s.Access(2)
	s.Access(3)
	// 1 was pushed down by 2 and 3 -> distance 2.
	if d := s.Access(1); d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
}

func TestLRUStackSequence(t *testing.T) {
	// Cyclic pattern over 4 lines: after warmup, every access has distance 3.
	s := NewLRUStack(64)
	for i := 0; i < 4; i++ {
		s.Access(Addr(i))
	}
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 4; i++ {
			if d := s.Access(Addr(i)); d != 3 {
				t.Fatalf("cyclic distance = %d, want 3", d)
			}
		}
	}
	// Cache of 4+ lines: only the 4 cold misses. Cache of <=3: all miss.
	if r := s.MissRatioAt(4); r > 4.0/44+1e-9 {
		t.Errorf("miss ratio @4 = %g, want ~4/44", r)
	}
	if r := s.MissRatioAt(3); r != 1 {
		t.Errorf("miss ratio @3 = %g, want 1 (thrashing)", r)
	}
}

func TestLRUStackMissRatioMonotone(t *testing.T) {
	s := NewLRUStack(1024)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		s.Access(Addr(rng.Intn(500)))
	}
	prev := 1.1
	for _, c := range []int{0, 16, 64, 128, 256, 512, 1024} {
		r := s.MissRatioAt(c)
		if r > prev+1e-12 {
			t.Fatalf("miss ratio increased with capacity at %d: %g > %g", c, r, prev)
		}
		prev = r
	}
	// Working set of 500 fits in 512.
	if r := s.MissRatioAt(512); r > 0.05 {
		t.Errorf("fitting working set still misses: %g", r)
	}
}

func TestLRUStackDeepReusesAreCold(t *testing.T) {
	s := NewLRUStack(4)
	for i := 0; i < 10; i++ {
		s.Access(Addr(i))
	}
	// Reuse of addr 0 has distance 9 > maxDist 4: counted cold.
	if d := s.Access(0); d != ColdMiss {
		t.Errorf("deep reuse = %d, want cold", d)
	}
}

func TestBankGeometry(t *testing.T) {
	b := NewBank(64, 16)
	if b.Sets() != 64 || b.ways != 16 || b.sets*b.ways != 1024 {
		t.Errorf("geometry wrong: %d sets %d ways", b.Sets(), b.ways)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewBank(0,1) did not panic")
		}
	}()
	NewBank(0, 1)
}

func TestBankHitMiss(t *testing.T) {
	b := NewBank(4, 2)
	if b.Access(100, 0) {
		t.Error("cold access hit")
	}
	if !b.Access(100, 0) {
		t.Error("second access missed")
	}
	if b.hits != 1 || b.misses != 1 {
		t.Errorf("counters: %d hits %d misses", b.hits, b.misses)
	}
	if !b.Contains(100) {
		t.Error("Contains(100) false")
	}
	if b.Contains(101) {
		t.Error("Contains(101) true")
	}
}

func TestBankLRUWithinSet(t *testing.T) {
	b := NewBank(1, 2) // one set, 2 ways
	b.SetTarget(0, 2)
	b.Access(1, 0)
	b.Access(2, 0)
	b.Access(1, 0) // 1 is now MRU
	b.Access(3, 0) // evicts 2 (LRU)
	if !b.Contains(1) || b.Contains(2) || !b.Contains(3) {
		t.Errorf("LRU eviction wrong: 1=%v 2=%v 3=%v", b.Contains(1), b.Contains(2), b.Contains(3))
	}
}

func TestBankPartitionEnforcement(t *testing.T) {
	// Two partitions share a bank; the over-quota partition loses lines.
	b := NewBank(16, 8) // 128 lines
	b.SetTarget(1, 96)
	b.SetTarget(2, 32)
	rng := rand.New(rand.NewSource(3))
	// Both partitions stream over footprints larger than their quotas.
	for i := 0; i < 60000; i++ {
		if rng.Intn(2) == 0 {
			b.Access(Addr(rng.Intn(512)), 1)
		} else {
			b.Access(Addr(1<<20+rng.Intn(512)), 2)
		}
	}
	occ1, occ2 := b.occupancy[1], b.occupancy[2]
	if occ1+occ2 > b.sets*b.ways {
		t.Fatalf("occupancy exceeds capacity: %d+%d > %d", occ1, occ2, b.sets*b.ways)
	}
	// Partition 1 should hold roughly 3x partition 2 (96 vs 32 quota);
	// allow generous slack for set-level interference.
	ratio := float64(occ1) / float64(occ2)
	if ratio < 1.8 || ratio > 4.5 {
		t.Errorf("partition ratio = %.2f (occ %d vs %d), want ~3", ratio, occ1, occ2)
	}
}

func TestBankZeroTargetPartitionIsEvictable(t *testing.T) {
	b := NewBank(8, 4) // 32 lines
	b.SetTarget(1, 32)
	// Partition 2 has no quota: its lines should be displaced by partition 1.
	for i := 0; i < 32; i++ {
		b.Access(Addr(i), 2)
	}
	for i := 0; i < 4096; i++ {
		b.Access(Addr(1000+i%32), 1)
	}
	if occ := b.occupancy[2]; occ > 4 {
		t.Errorf("zero-target partition still holds %d lines", occ)
	}
}

func TestBankReclassificationMovesAccounting(t *testing.T) {
	b := NewBank(4, 4)
	b.Access(42, 1)
	if b.occupancy[1] != 1 {
		t.Fatalf("occupancy(1)=%d", b.occupancy[1])
	}
	// Same line accessed under a different partition: accounting follows.
	b.Access(42, 2)
	if b.occupancy[1] != 0 || b.occupancy[2] != 1 {
		t.Errorf("reclassification: occ1=%d occ2=%d", b.occupancy[1], b.occupancy[2])
	}
}

func TestInvalidateAddr(t *testing.T) {
	b := NewBank(4, 2)
	b.Access(7, 0)
	if !b.InvalidateAddr(7) {
		t.Error("InvalidateAddr missed resident line")
	}
	if b.InvalidateAddr(7) {
		t.Error("InvalidateAddr hit non-resident line")
	}
	if b.Contains(7) {
		t.Error("line still resident after invalidation")
	}
}

func TestWalkSet(t *testing.T) {
	b := NewBank(2, 4)
	// Fill set 0 (even addresses) and set 1 (odd).
	for i := 0; i < 8; i++ {
		b.Access(Addr(i), PartID(i%2))
	}
	// Drop everything in set 0 belonging to partition 0.
	n := b.WalkSet(0, func(a Addr, p PartID) bool { return p != 0 })
	if n == 0 {
		t.Error("WalkSet invalidated nothing")
	}
	if got := b.WalkSet(99, func(Addr, PartID) bool { return true }); got != 0 {
		t.Errorf("out-of-range WalkSet returned %d", got)
	}
}

func TestBankOccupancyConservation(t *testing.T) {
	b := NewBank(16, 4)
	b.SetTarget(1, 30)
	b.SetTarget(2, 20)
	b.SetTarget(3, 14)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30000; i++ {
		p := PartID(1 + rng.Intn(3))
		b.Access(Addr(int(p)<<24|rng.Intn(200)), p)
	}
	total := b.occupancy[1] + b.occupancy[2] + b.occupancy[3]
	if total > b.sets*b.ways {
		t.Errorf("total occupancy %d exceeds capacity %d", total, b.sets*b.ways)
	}
	if total <= 0 {
		t.Error("no lines resident after 30k accesses")
	}
}
