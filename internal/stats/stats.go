// Package stats provides the summary statistics the paper reports: weighted
// speedups, geometric means across workload mixes, and sorted inverse-CDF
// series for distribution plots (Fig. 11a style).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values, or 0 for an empty
// slice. It panics on non-positive inputs: speedups are strictly positive by
// construction, so a non-positive value is a bug upstream.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean of non-positive value")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// WeightedSpeedup computes the paper's metric: the mean of per-app IPC ratios
// against a baseline run of the same mix. The slices must be parallel
// (ipc[i] and base[i] describe the same app); it panics otherwise.
func WeightedSpeedup(ipc, base []float64) float64 {
	if len(ipc) != len(base) {
		panic("stats: WeightedSpeedup slice length mismatch")
	}
	if len(ipc) == 0 {
		return 0
	}
	sum := 0.0
	for i := range ipc {
		sum += ipc[i] / base[i]
	}
	return sum / float64(len(ipc))
}

// Sorted returns a descending-sorted copy: the inverse-CDF ordering used in
// the paper's distribution plots (workloads sorted by improvement).
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
