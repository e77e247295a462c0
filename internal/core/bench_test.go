package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cdcs/internal/workload"
)

// BenchmarkReconfigure times one full CDCS reconfiguration (steps 1-4) on a
// warm Arena: 64 apps on the paper's 8×8 chip, and one app per 16 tiles at
// 32×32, 64×64 and 128×128, the density of the kilotile benchmark cells.
// Besides ns/op it reports each step's time (from
// Result.Timing) and knots/op, the summed length of step 1's cost curves: a
// work count that, unlike time, does not drift with a busy host.
func BenchmarkReconfigure(b *testing.B) {
	for _, side := range []int{8, 32, 64, 128} {
		apps := max(side*side/16, 64)
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			cfg := testConfig(side, side, AllCDCS())
			mix := workload.RandomST(rand.New(rand.NewSource(1)), workload.SPECCPU(), apps)
			ar := NewArena()
			if _, err := ReconfigureWith(cfg, mix, nil, ar); err != nil {
				b.Fatal(err)
			}
			knots := 0
			for _, c := range ar.Alloc.Costs(len(mix.VCs)) {
				knots += c.Len()
			}
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
			b.ReportMetric(float64(knots), "knots/op")
			b.ReportMetric(float64(sum.Alloc.Nanoseconds())/n, "alloc-ns/op")
			b.ReportMetric(float64(sum.VCPlace.Nanoseconds())/n, "vcplace-ns/op")
			b.ReportMetric(float64(sum.ThreadPlace.Nanoseconds())/n, "threadplace-ns/op")
			b.ReportMetric(float64(sum.DataPlace.Nanoseconds())/n, "dataplace-ns/op")
		})
	}
}
