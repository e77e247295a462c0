package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// The tail percentile must leave at least ten samples beyond it.
func TestTailPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, p, c.want)
		}
		if p > 50 && c.n*(100-p) < 1000 {
			t.Errorf("tailPercentile(%d) = p%d leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

// Each workload's fixed tail percentile must leave at least ten samples
// beyond it at the fewest samples its comment says a window yields.
func TestWorkloadTailsFollowTheRule(t *testing.T) {
	expected := map[string]int{"paper-cold": 5000, "warm-mixed": 9000, "kilotile-cold": 40, "fleet-sweep": 700}
	for _, w := range workloads(fullScale) {
		if got := tailPercentile(expected[w.name]); w.tail > got {
			t.Errorf("%s reports p%d, rule allows at most p%d for %d samples", w.name, w.tail, got, expected[w.name])
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the spreads in BENCHMARK.json's bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
