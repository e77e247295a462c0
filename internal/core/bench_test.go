package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cdcs/internal/workload"
)

// BenchmarkReconfigure times one full CDCS reconfiguration (steps 1-4) on a
// warm Arena: 64 apps on the paper's 8×8 chip, and one app per 16 tiles at
// every kilotile benchmark size, 32×32 to 128×128 (48×48 exercises the flat
// pipeline's sparse BankAlloc, 96×96 and 128×128 the hierarchical one).
// Besides ns/op it reports each step's time (from Result.Timing) and two
// step-1 work counts that, unlike time, do not drift with a busy host:
// curves/op, the number of distinct cost curves built, and knots/op, the
// summed length of the per-VC cost curves.
func BenchmarkReconfigure(b *testing.B) {
	for _, side := range []int{8, 32, 48, 64, 96, 128} {
		apps := max(side*side/16, 64)
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			cfg := testConfig(side, side, AllCDCS())
			mix := workload.RandomST(rand.New(rand.NewSource(1)), workload.SPECCPU(), apps)
			ar := NewArena()
			if _, err := ReconfigureWith(cfg, mix, nil, ar); err != nil {
				b.Fatal(err)
			}
			distinct, knots := ar.Alloc.SharedWork()
			var sum Timing
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				res, err := ReconfigureWith(cfg, mix, nil, ar)
				if err != nil {
					b.Fatal(err)
				}
				sum.Alloc += res.Timing.Alloc
				sum.VCPlace += res.Timing.VCPlace
				sum.ThreadPlace += res.Timing.ThreadPlace
				sum.DataPlace += res.Timing.DataPlace
			}
			n := float64(b.N)
			b.ReportMetric(float64(distinct), "curves/op")
			b.ReportMetric(float64(knots), "knots/op")
			b.ReportMetric(float64(sum.Alloc.Nanoseconds())/n, "alloc-ns/op")
			b.ReportMetric(float64(sum.VCPlace.Nanoseconds())/n, "vcplace-ns/op")
			b.ReportMetric(float64(sum.ThreadPlace.Nanoseconds())/n, "threadplace-ns/op")
			b.ReportMetric(float64(sum.DataPlace.Nanoseconds())/n, "dataplace-ns/op")
		})
	}
}
