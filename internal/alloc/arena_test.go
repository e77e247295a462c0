package alloc

import (
	"math"
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

// TestLatencyCurveIntoBitIdentical proves the arena curve builders match
// the allocating builders bit for bit while reusing destination backings.
// MissLatencyCurveInto builds the whole curve. TotalLatencyPrefixInto builds
// a prefix of TotalLatencyCurve, checked on the 8×8, 64×64 and 128×128
// distance curves (8×8 barely truncates): every kept knot matches, the
// prefix holds the whole curve's first minimum, and the first dropped knot's
// on-chip term alone exceeds the prefix minimum.
func TestLatencyCurveIntoBitIdentical(t *testing.T) {
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	var dTotal, dMiss curves.Curve
	for _, side := range []int{8, 64, 128} {
		topo := mesh.New(side, side)
		dist := CompactDistance(topo, 8192)
		maxLines := float64(topo.Tiles()) * 8192
		for _, p := range workload.SPECCPU() {
			full := TotalLatencyCurve(p.MissRatio, p.APKI, dist, m, maxLines)
			dTotal = TotalLatencyPrefixInto(dTotal, p.MissRatio, p.APKI, dist, m, maxLines)
			n := dTotal.Len()
			if n > full.Len() {
				t.Fatalf("%dx%d %s: prefix has %d knots, whole curve %d", side, side, p.Name, n, full.Len())
			}
			prefixMin := math.Inf(1)
			for i := 0; i < n; i++ {
				gx, gy := dTotal.Knot(i)
				wx, wy := full.Knot(i)
				if gx != wx || gy != wy {
					t.Fatalf("%dx%d %s: knot %d is (%v, %v), whole curve has (%v, %v)", side, side, p.Name, i, gx, gy, wx, wy)
				}
				prefixMin = min(prefixMin, gy)
			}
			if wantX, _ := full.ArgMin(); wantX > dTotal.MaxX() {
				t.Fatalf("%dx%d %s: prefix ends at %v before the first minimum at %v", side, side, p.Name, dTotal.MaxX(), wantX)
			}
			if n < full.Len() {
				x, _ := full.Knot(n)
				if onChip := p.APKI * dist.Eval(x) * m.HopLatency * m.RoundTrip; !(onChip > prefixMin) {
					t.Fatalf("%dx%d %s: dropped knot %d at %v has on-chip term %v, not above the prefix minimum %v", side, side, p.Name, n, x, onChip, prefixMin)
				}
			}
		}
		for _, p := range workload.SPECCPU() {
			wantMiss := MissLatencyCurve(p.MissRatio, p.APKI, m, maxLines)
			dMiss = MissLatencyCurveInto(dMiss, p.MissRatio, p.APKI, m, maxLines)
			if !curvesBitEqual(wantMiss, dMiss) {
				t.Fatalf("%dx%d %s: MissLatencyCurveInto differs", side, side, p.Name)
			}
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
	costs := make([]curves.Curve, 64) // one slot per VC, backings reused
	round := func() {
		dist := ar.CompactDistance(topo, 8192)
		for i := range costs {
			p := profiles[i%len(profiles)]
			costs[i] = TotalLatencyPrefixInto(costs[i], p.MissRatio, p.APKI, dist, m, total)
		}
		PeekaheadQuantizedIn(ar, costs, total, 8192)
	}
	round() // warm the arena
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("steady-state allocation round allocated %.1f times per run", allocs)
	}
}
