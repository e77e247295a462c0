package trace

import (
	"math"
	"math/rand"
	"testing"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
	"cdcs/internal/workload"
)

// reproduces checks that a generator's stream reproduces the target curve on
// an exact LRU simulator within tol at the probe capacities.
func reproduces(t *testing.T, ratio curves.Curve, probes []int, n int, tol float64) {
	t.Helper()
	g := NewGenerator(ratio, 0, rand.New(rand.NewSource(101)))
	lru := cachesim.NewLRUStack(int(ratio.MaxX()) + 1)
	for i := 0; i < n; i++ {
		lru.Access(g.Next())
	}
	for _, c := range probes {
		want := ratio.Eval(float64(c))
		got := lru.MissRatioAt(c)
		if math.Abs(got-want) > tol {
			t.Errorf("capacity %d: measured miss ratio %.3f, target %.3f", c, got, want)
		}
	}
}

func TestGeneratorReproducesCliffCurve(t *testing.T) {
	// omnet-like cliff at 2048 lines.
	ratio := curves.New(
		[]float64{0, 1024, 1843, 1946, 2048, 2253, 8192},
		[]float64{0.9, 0.87, 0.81, 0.45, 0.03, 0.02, 0.02})
	reproduces(t, ratio, []int{256, 1024, 4096, 8192}, 120000, 0.06)
}

func TestGeneratorReproducesStreamingCurve(t *testing.T) {
	ratio := curves.Constant(0.97, 4096)
	g := NewGenerator(ratio, 0, rand.New(rand.NewSource(7)))
	lru := cachesim.NewLRUStack(4097)
	for i := 0; i < 50000; i++ {
		lru.Access(g.Next())
	}
	// Streaming: high miss ratio even at full capacity.
	if r := lru.MissRatioAt(4096); r < 0.9 {
		t.Errorf("streaming trace hit too much: miss ratio %.3f", r)
	}
}

func TestGeneratorReproducesDecayCurve(t *testing.T) {
	// Exponential-decay (friendly) curve, sampled loosely.
	xs := []float64{0, 512, 1024, 2048, 4096, 8192}
	ys := []float64{0.8, 0.55, 0.4, 0.25, 0.15, 0.10}
	reproduces(t, curves.New(xs, ys), []int{512, 2048, 8192}, 120000, 0.06)
}

func TestGeneratorMatchesWorkloadProfile(t *testing.T) {
	// End-to-end: the omnet profile's own curve should be reproducible.
	// Scale the domain down 8x to keep the exact LRU simulation fast; the
	// curve shape is capacity-relative so this preserves the cliff.
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	xs := omnet.MissRatio.Xs()
	ys := omnet.MissRatio.Ys()
	for i := range xs {
		xs[i] /= 8
	}
	scaled := curves.New(xs, ys)
	reproduces(t, scaled, []int{2048, 4096, 6144}, 100000, 0.07)
}

func TestFreshAddressesAreUnique(t *testing.T) {
	g := NewGenerator(curves.Constant(1.0, 64), 0, rand.New(rand.NewSource(1)))
	seen := map[cachesim.Addr]int{}
	for i := 0; i < 1000; i++ {
		seen[g.Next()]++
	}
	// Pure streaming: all addresses distinct.
	for a, n := range seen {
		if n > 1 {
			t.Fatalf("address %d issued %d times under ratio=1", a, n)
		}
	}
}

func TestBaseSeparatesAddressSpaces(t *testing.T) {
	g1 := NewGenerator(curves.Constant(1, 16), 0, rand.New(rand.NewSource(1)))
	g2 := NewGenerator(curves.Constant(1, 16), 1<<32, rand.New(rand.NewSource(1)))
	inS1 := map[cachesim.Addr]bool{}
	for range 100 {
		inS1[g1.Next()] = true
	}
	for range 100 {
		if a := g2.Next(); inS1[a] {
			t.Fatalf("address collision across bases: %d", a)
		}
	}
}
