package alloc

import (
	"math/rand"
	"slices"
	"testing"

	"cdcs/internal/curves"
	"cdcs/internal/mesh"
	"cdcs/internal/workload"
)

// specCosts builds n total-latency cost curves from the SPEC profiles, the
// allocator's production diet.
func specCosts(n int, topo *mesh.Topology, bankLines float64) ([]curves.Curve, float64) {
	dist := CompactDistance(topo, bankLines)
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	profiles := workload.SPECCPU()
	total := float64(topo.Tiles()) * bankLines
	costs := make([]curves.Curve, n)
	for i := range costs {
		p := profiles[i%len(profiles)]
		costs[i] = TotalLatencyCurve(p.MissRatio, p.APKI, dist, m, total)
	}
	return costs, total
}

func float64sBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPeekaheadInBitIdentical proves the allocation entry points give the
// same allocation bit for bit from a warm arena, reused across rounds, as
// from a nil arena, and that a nil-arena result is independent of later
// calls.
func TestPeekaheadInBitIdentical(t *testing.T) {
	topo := mesh.New(8, 8)
	ar := NewArena()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(64)
		costs, total := specCosts(n, topo, 8192)
		budget := total * (0.25 + rng.Float64()*0.75)

		want := PeekaheadIn(nil, costs, budget)
		kept := slices.Clone(want)
		if got := PeekaheadIn(ar, costs, budget); !float64sBitEqual(got, want) {
			t.Fatalf("trial %d: PeekaheadIn differs:\n  %v\n  %v", trial, got, want)
		}
		if got, want := PeekaheadFullIn(ar, costs, budget), PeekaheadFullIn(nil, costs, budget); !float64sBitEqual(got, want) {
			t.Fatalf("trial %d: PeekaheadFullIn differs", trial)
		}
		if got, want := PeekaheadQuantizedIn(ar, costs, budget, 8192), PeekaheadQuantizedIn(nil, costs, budget, 8192); !float64sBitEqual(got, want) {
			t.Fatalf("trial %d: PeekaheadQuantizedIn differs:\n  %v\n  %v", trial, got, want)
		}
		PeekaheadIn(nil, costs, budget/2)
		if !float64sBitEqual(want, kept) {
			t.Fatalf("trial %d: a later call overwrote a nil-arena result", trial)
		}
	}
}

// TestLatencyCurveIntoBitIdentical proves the Into curve builders match the
// allocating builders bit for bit while reusing destination backings.
func TestLatencyCurveIntoBitIdentical(t *testing.T) {
	topo := mesh.New(8, 8)
	dist := CompactDistance(topo, 8192)
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	maxLines := 64 * 8192.0
	var dTotal, dMiss curves.Curve
	for _, p := range workload.SPECCPU() {
		want := TotalLatencyCurve(p.MissRatio, p.APKI, dist, m, maxLines)
		dTotal = TotalLatencyCurveInto(dTotal, p.MissRatio, p.APKI, dist, m, maxLines)
		if !curvesBitEqual(want, dTotal) {
			t.Fatalf("%s: TotalLatencyCurveInto differs", p.Name)
		}
		wantMiss := MissLatencyCurve(p.MissRatio, p.APKI, m, maxLines)
		dMiss = MissLatencyCurveInto(dMiss, p.MissRatio, p.APKI, m, maxLines)
		if !curvesBitEqual(wantMiss, dMiss) {
			t.Fatalf("%s: MissLatencyCurveInto differs", p.Name)
		}
	}
}

func curvesBitEqual(a, b curves.Curve) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ax, ay := a.Knot(i)
		bx, by := b.Knot(i)
		if ax != bx || ay != by {
			return false
		}
	}
	return true
}

// TestArenaCompactDistanceMemo checks the memo hits on repeated (topo, lines)
// and misses when either changes.
func TestArenaCompactDistanceMemo(t *testing.T) {
	ar := NewArena()
	topo := mesh.New(4, 4)
	c1 := ar.CompactDistance(topo, 8192)
	c2 := ar.CompactDistance(topo, 8192)
	if !curvesBitEqual(c1, c2) {
		t.Fatal("memoized CompactDistance differs from first call")
	}
	want := CompactDistance(topo, 8192)
	if !curvesBitEqual(c1, want) {
		t.Fatal("memoized CompactDistance differs from package-level call")
	}
	other := ar.CompactDistance(topo, 4096)
	if curvesBitEqual(c1, other) {
		t.Fatal("memo failed to rebuild for a different bank size")
	}
}

// TestAllocArenaSteadyStateZeroAlloc proves a full steady-state allocation
// round — cost-curve builds plus quantized Peekahead — allocates nothing
// once the arena is warm.
func TestAllocArenaSteadyStateZeroAlloc(t *testing.T) {
	topo := mesh.New(8, 8)
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	profiles := workload.SPECCPU()
	total := 64 * 8192.0
	ar := NewArena()
	round := func() {
		dist := ar.CompactDistance(topo, 8192)
		costs := ar.Costs(64)
		for i := range costs {
			p := profiles[i%len(profiles)]
			costs[i] = TotalLatencyCurveInto(costs[i], p.MissRatio, p.APKI, dist, m, total)
		}
		PeekaheadQuantizedIn(ar, costs, total, 8192)
	}
	round() // warm the arena
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("steady-state allocation round allocated %.1f times per run", allocs)
	}
}
