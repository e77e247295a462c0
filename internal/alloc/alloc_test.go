package alloc

import (
	"math"
	"math/rand"
	"testing"

	"cdcs/internal/curves"
	"cdcs/internal/mesh"
	"cdcs/internal/workload"
)

func TestPeekaheadSingleCurve(t *testing.T) {
	// One convex decreasing curve: allocator gives it everything useful.
	c := curves.New([]float64{0, 100, 200}, []float64{100, 20, 10})
	got := PeekaheadIn(nil, []curves.Curve{c}, 150)
	if !approx(got[0], 150, 1e-9) {
		t.Errorf("alloc=%v, want all 150", got)
	}
}

func TestPeekaheadPrefersSteeperCurve(t *testing.T) {
	// VC a drops 100 cost over 100 lines; VC b drops 10 over 100 lines.
	a := curves.New([]float64{0, 100}, []float64{100, 0})
	b := curves.New([]float64{0, 100}, []float64{10, 0})
	got := PeekaheadIn(nil, []curves.Curve{a, b}, 100)
	if !approx(got[0], 100, 1e-9) || !approx(got[1], 0, 1e-9) {
		t.Errorf("alloc=%v, want [100 0]", got)
	}
}

func TestPeekaheadSplitsAtEqualMarginal(t *testing.T) {
	// Identical curves: equal split (after each takes its first segment).
	c := curves.New([]float64{0, 50, 100}, []float64{100, 40, 10})
	got := PeekaheadIn(nil, []curves.Curve{c, c}, 100)
	if !approx(got[0], 50, 1e-9) || !approx(got[1], 50, 1e-9) {
		t.Errorf("alloc=%v, want [50 50]", got)
	}
}

func TestPeekaheadStopsAtSweetSpot(t *testing.T) {
	// U-shaped latency curve: minimum at 60 lines. Latency-aware allocation
	// must leave the rest unused.
	c := curves.New([]float64{0, 30, 60, 90, 120}, []float64{100, 40, 20, 30, 50})
	got := PeekaheadIn(nil, []curves.Curve{c}, 120)
	if !approx(got[0], 60, 1e-9) {
		t.Errorf("alloc=%v, want 60 (sweet spot), leaving capacity unused", got)
	}
}

func TestPeekaheadStreamingGetsNothing(t *testing.T) {
	// milc-like flat curve next to an omnet-like cliff: streaming VC gets
	// nothing, fitting VC gets its footprint.
	flat := curves.Constant(100, 200)
	cliffy := curves.New([]float64{0, 80, 100, 200}, []float64{100, 90, 5, 5})
	got := PeekaheadIn(nil, []curves.Curve{flat, cliffy}, 150)
	if got[0] != 0 {
		t.Errorf("streaming VC got %g lines", got[0])
	}
	if got[1] < 100-1e-9 {
		t.Errorf("fitting VC got %g lines, want >=100", got[1])
	}
}

func TestPeekaheadRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		cs := make([]curves.Curve, n)
		for i := range cs {
			cs[i] = randomDecreasing(rng)
		}
		budget := rng.Float64() * 500
		got := PeekaheadIn(nil, cs, budget)
		sum := 0.0
		for i, a := range got {
			if a < -1e-9 {
				t.Fatalf("negative allocation %g", a)
			}
			if a > cs[i].MaxX()+1e-9 {
				t.Fatalf("allocation %g beyond curve domain %g", a, cs[i].MaxX())
			}
			sum += a
		}
		if sum > budget+1e-6 {
			t.Fatalf("allocated %g over budget %g", sum, budget)
		}
	}
}

// TestPeekaheadMatchesBruteForce checks optimality against exhaustive search
// on small quantized instances.
func TestPeekaheadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const chunk = 10.0
	const budgetChunks = 12
	for trial := 0; trial < 30; trial++ {
		cs := []curves.Curve{
			randomConvexDecreasing(rng, chunk, 8),
			randomConvexDecreasing(rng, chunk, 8),
			randomConvexDecreasing(rng, chunk, 8),
		}
		got := PeekaheadIn(nil, cs, budgetChunks*chunk)
		gotCost := 0.0
		for i, a := range got {
			gotCost += cs[i].Eval(a)
		}
		// Brute force over chunk allocations.
		best := math.Inf(1)
		for a := 0; a <= budgetChunks; a++ {
			for b := 0; a+b <= budgetChunks; b++ {
				for c := 0; a+b+c <= budgetChunks; c++ {
					cost := cs[0].Eval(float64(a)*chunk) +
						cs[1].Eval(float64(b)*chunk) +
						cs[2].Eval(float64(c)*chunk)
					if cost < best {
						best = cost
					}
				}
			}
		}
		if gotCost > best+1e-6 {
			t.Errorf("trial %d: peekahead cost %g worse than brute force %g (alloc %v)",
				trial, gotCost, best, got)
		}
	}
}

func TestPeekaheadQuantized(t *testing.T) {
	a := curves.New([]float64{0, 100}, []float64{100, 0})
	b := curves.New([]float64{0, 100}, []float64{50, 0})
	got := PeekaheadQuantizedIn(nil, []curves.Curve{a, b}, 96, 32)
	sum := 0.0
	for _, v := range got {
		if rem := math.Mod(v, 32); rem > 1e-9 && rem < 32-1e-9 {
			t.Errorf("allocation %g not chunk-aligned", v)
		}
		sum += v
	}
	if sum > 96+1e-9 {
		t.Errorf("quantized total %g over budget", sum)
	}
}

func TestPeekaheadQuantizedPanicsOnBadChunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("chunk 0 accepted")
		}
	}()
	PeekaheadQuantizedIn(nil, nil, 100, 0)
}

func TestCompactDistance(t *testing.T) {
	topo := mesh.New(8, 8)
	const bank = 8192.0
	d := CompactDistance(topo, bank)
	// First bank is the center tile: average distance 0.
	if v := d.Eval(bank); !approx(v, 0, 1e-9) {
		t.Errorf("distance with 1 bank = %g, want 0", v)
	}
	// Distance grows monotonically with capacity.
	prev := -1.0
	for s := bank; s <= 64*bank; s += bank {
		v := d.Eval(s)
		if v < prev-1e-9 {
			t.Fatalf("compact distance decreased at %g lines", s)
		}
		prev = v
	}
	// Paper Fig. 6: an ~8-bank VC around the center averages ~1.3 hops.
	if v := d.Eval(8.2 * bank); v < 0.9 || v > 1.7 {
		t.Errorf("8.2-bank compact distance = %g hops, want ~1.27", v)
	}
	// Full chip: mean distance from center to all tiles.
	full := d.Eval(64 * bank)
	want := 0.0
	for i := 0; i < 64; i++ {
		want += float64(topo.Distance(topo.CenterTile(), mesh.Tile(i)))
	}
	want /= 64
	if !approx(full, want, 1e-9) {
		t.Errorf("full-chip distance %g, want %g", full, want)
	}
}

func TestTotalLatencyCurveSweetSpot(t *testing.T) {
	// An omnet-like VC on a 64-tile chip has a U-shaped total-latency curve
	// whose minimum sits near its footprint — not at maximum capacity.
	topo := mesh.New(8, 8)
	const bank = 8192.0
	dist := CompactDistance(topo, bank)
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	m := LatencyModel{MemLatency: 150, HopLatency: 4, RoundTrip: 2}
	lat := TotalLatencyCurve(omnet.MissRatio, omnet.APKI, dist, m, 64*bank)

	xStar, _ := lat.ArgMin()
	if xStar <= 0 || xStar >= 64*bank-1 {
		t.Errorf("sweet spot at %g lines, want interior", xStar)
	}
	// Latency at the sweet spot beats both extremes.
	_, yStar := lat.ArgMin()
	if yStar >= lat.Eval(0) || yStar >= lat.Eval(64*bank) {
		t.Errorf("sweet spot %g not below extremes (%g, %g)", yStar, lat.Eval(0), lat.Eval(64*bank))
	}
	// Sweet spot is near the footprint (2.5MB = 40960 lines), within 2 banks.
	if math.Abs(xStar-2.5*workload.LinesPerMB) > 2*bank {
		t.Errorf("sweet spot %g lines, want near %g", xStar, 2.5*workload.LinesPerMB)
	}
}

func TestMissLatencyCurveIgnoresDistance(t *testing.T) {
	// Miss-only curves are non-increasing: Jigsaw never leaves capacity
	// unused voluntarily.
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	m := LatencyModel{MemLatency: 150, HopLatency: 4, RoundTrip: 2}
	lat := MissLatencyCurve(omnet.MissRatio, omnet.APKI, m, 64*8192)
	if !lat.IsNonIncreasing() {
		t.Error("miss-latency curve should be non-increasing")
	}
	if v := lat.Eval(0); !approx(v, omnet.APKI*0.90*150, 1) {
		t.Errorf("zero-capacity cost %g", v)
	}
}

func TestLatencyAwareVsMissOnlyAllocation(t *testing.T) {
	// With plentiful capacity (few apps), latency-aware allocation gives a
	// small-footprint VC less capacity than miss-only allocation would.
	topo := mesh.New(8, 8)
	const bank = 8192.0
	dist := CompactDistance(topo, bank)
	m := LatencyModel{MemLatency: 150, HopLatency: 4, RoundTrip: 2}

	profiles := []*workload.Profile{
		workload.ByName(workload.SPECCPU(), "omnet"),
		workload.ByName(workload.SPECCPU(), "milc"),
	}
	total := 64 * bank
	latCurves := make([]curves.Curve, len(profiles))
	missCurves := make([]curves.Curve, len(profiles))
	for i, p := range profiles {
		latCurves[i] = TotalLatencyCurve(p.MissRatio, p.APKI, dist, m, total)
		missCurves[i] = MissLatencyCurve(p.MissRatio, p.APKI, m, total)
	}
	latAlloc := PeekaheadIn(nil, latCurves, total)
	missAlloc := PeekaheadFullIn(nil, missCurves, total)

	sumLat := latAlloc[0] + latAlloc[1]
	sumMiss := missAlloc[0] + missAlloc[1]
	if sumLat >= sumMiss {
		t.Errorf("latency-aware used %g lines, miss-only %g: expected latency-aware to leave capacity unused",
			sumLat, sumMiss)
	}
	// Both give omnet at least its footprint.
	if latAlloc[0] < 2.4*workload.LinesPerMB {
		t.Errorf("latency-aware gave omnet only %g lines", latAlloc[0])
	}
}

// randomDecreasing builds a random non-increasing curve.
func randomDecreasing(rng *rand.Rand) curves.Curve {
	n := 3 + rng.Intn(8)
	xs := make([]float64, n)
	ys := make([]float64, n)
	x, y := 0.0, 50+rng.Float64()*100
	for i := 0; i < n; i++ {
		xs[i] = x
		ys[i] = y
		x += 5 + rng.Float64()*50
		y -= rng.Float64() * 30
		if y < 0 {
			y = 0
		}
	}
	return curves.New(xs, ys)
}

// randomConvexDecreasing builds a convex non-increasing curve with knots at
// chunk multiples (so brute force over chunks is exact).
func randomConvexDecreasing(rng *rand.Rand, chunk float64, nChunks int) curves.Curve {
	xs := make([]float64, nChunks+1)
	ys := make([]float64, nChunks+1)
	y := 100.0
	slope := -(10 + rng.Float64()*20)
	for i := 0; i <= nChunks; i++ {
		xs[i] = float64(i) * chunk
		ys[i] = y
		y += slope
		slope *= 0.5 + rng.Float64()*0.4 // decreasing magnitude: convex
		if y < 0 {
			y = 0
		}
	}
	return curves.New(xs, ys)
}

func approx(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}
