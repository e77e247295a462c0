package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !eq(got, c.want) {
			t.Errorf("Mean(%v)=%g, want %g", c.xs, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !eq(got, 2) {
		t.Errorf("GeoMean(1,4)=%g, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !eq(got, 2) {
		t.Errorf("GeoMean(2,2,2)=%g, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil)=%g, want 0", got)
	}
	// GeoMean <= Mean (AM-GM).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		xs := make([]float64, 10)
		for j := range xs {
			xs[j] = rng.Float64()*10 + 0.1
		}
		if GeoMean(xs) > Mean(xs)+1e-12 {
			t.Fatalf("AM-GM violated: gm=%g am=%g", GeoMean(xs), Mean(xs))
		}
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GeoMean(0) did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestWeightedSpeedup(t *testing.T) {
	// Two apps: one 2x faster, one unchanged -> WS 1.5.
	ws := WeightedSpeedup([]float64{2, 1}, []float64{1, 1})
	if !eq(ws, 1.5) {
		t.Errorf("WS=%g, want 1.5", ws)
	}
	// Identity.
	if ws := WeightedSpeedup([]float64{3, 4}, []float64{3, 4}); !eq(ws, 1) {
		t.Errorf("identity WS=%g", ws)
	}
	if ws := WeightedSpeedup(nil, nil); ws != 0 {
		t.Errorf("empty WS=%g", ws)
	}
}

func TestWeightedSpeedupPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched WS did not panic")
		}
	}()
	WeightedSpeedup([]float64{1}, []float64{1, 2})
}

func TestSorted(t *testing.T) {
	in := []float64{1, 3, 2}
	out := Sorted(in)
	if out[0] != 3 || out[1] != 2 || out[2] != 1 {
		t.Errorf("Sorted=%v", out)
	}
	// Input untouched.
	if in[0] != 1 || in[2] != 2 {
		t.Errorf("Sorted mutated input: %v", in)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Max(xs) != 7 {
		t.Errorf("Max wrong: %g", Max(xs))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty Max should be -Inf")
	}
}

func eq(a, b float64) bool { return within(a, b, 1e-12) }

func within(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}
