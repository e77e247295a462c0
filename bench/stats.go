package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between closest ranks. samples need not be sorted; an empty
// slice yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile is the highest reported percentile that has at least ten
// samples beyond it: p99 from 1000 samples, p90 from 100, p75 from 40, and
// the median below that. A tail read from fewer samples is one or two
// outliers, not a distribution.
func tailPercentile(n int) int {
	for _, p := range []int{99, 90, 75} {
		if n*(100-p) >= 1000 {
			return p
		}
	}
	return 50
}

// quartiles returns the first, second and third quartile of values with the
// same "exclusive" interpolation as Python's statistics.quantiles(n=4), so
// the spreads printed by -repeat match the ones computed from the JSON lines.
// Like Python's, it extrapolates for tiny inputs; one value is its own
// quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gmean is the geometric mean of positive values (0 for none).
func gmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
