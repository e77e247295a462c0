package core

import (
	"math/rand"
	"testing"

	"cdcs/internal/workload"
)

// reconfigureCases are BenchmarkReconfigure's mixes: one committed mix (its
// allocation fills every line of the chip) and one undercommitted mix at
// every size. A committed chip leaves the §IV-F trade pass no free space to
// move into, so it is step 4's slow case; an undercommitted one is the
// regime where latency-aware Peekahead stops at zero marginal utility.
//
// The unsuffixed names are the original seed-1 entries, one app per 16
// tiles (64 at 8×8), which happen to be committed at 8×8 and 48×48 and
// undercommitted elsewhere. Each suffixed entry supplies the other regime
// with the first seed from 1 upward that has it; at 8×8 every 64-app mix
// fills the chip, so its undercommitted entry runs 4 apps.
var reconfigureCases = []struct {
	name       string
	side, apps int
	seed       int64
}{
	{"8x8", 8, 64, 1},
	{"8x8-under", 8, 4, 1},
	{"32x32", 32, 64, 1},
	{"32x32-committed", 32, 64, 3},
	{"48x48", 48, 144, 1},
	{"48x48-under", 48, 144, 2},
	{"64x64", 64, 256, 1},
	{"64x64-committed", 64, 256, 3},
	{"96x96", 96, 576, 1},
	{"96x96-committed", 96, 576, 3},
	{"128x128", 128, 1024, 1},
	{"128x128-committed", 128, 1024, 2},
}

// BenchmarkReconfigure times one full CDCS reconfiguration (steps 1-4) on a
// warm Arena for each of reconfigureCases: the paper's 8×8 chip, the flat
// pipeline at 32×32 to 64×64, and the hierarchical one at 96×96 and
// 128×128. Besides ns/op it reports each step's time (from Result.Timing)
// and work counts that, unlike time, do not drift with a busy host. Step 1:
// curves/op, the number of distinct cost curves built, and knots/op, the
// summed length of the per-VC cost curves. Step 2: centers/op, the
// candidate centers whose footprint was summed, and footprint/op, the bank
// claims those sums read. Step 4: spiral/op, the banks the trade spirals
// visited, desirables/op, the candidate banks they inserted, and trades/op,
// the moves they evaluated.
func BenchmarkReconfigure(b *testing.B) {
	for _, tc := range reconfigureCases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := testConfig(tc.side, tc.side, AllCDCS())
			mix := workload.RandomST(rand.New(rand.NewSource(tc.seed)), workload.SPECCPU(), tc.apps)
			ar := NewArena()
			if _, err := ReconfigureWith(cfg, mix, nil, ar); err != nil {
				b.Fatal(err)
			}
			distinct, knots := ar.Alloc.SharedWork()
			work0 := ar.Place.RefineWork()
			center0 := ar.Place.CenterWork()
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
			b.StopTimer()
			work := ar.Place.RefineWork()
			center := ar.Place.CenterWork()
			n := float64(b.N)
			b.ReportMetric(float64(distinct), "curves/op")
			b.ReportMetric(float64(knots), "knots/op")
			b.ReportMetric(float64(center.Centers-center0.Centers)/n, "centers/op")
			b.ReportMetric(float64(center.Footprint-center0.Footprint)/n, "footprint/op")
			b.ReportMetric(float64(work.Spiral-work0.Spiral)/n, "spiral/op")
			b.ReportMetric(float64(work.Inserted-work0.Inserted)/n, "desirables/op")
			b.ReportMetric(float64(work.Tried-work0.Tried)/n, "trades/op")
			b.ReportMetric(float64(sum.Alloc.Nanoseconds())/n, "alloc-ns/op")
			b.ReportMetric(float64(sum.VCPlace.Nanoseconds())/n, "vcplace-ns/op")
			b.ReportMetric(float64(sum.ThreadPlace.Nanoseconds())/n, "threadplace-ns/op")
			b.ReportMetric(float64(sum.DataPlace.Nanoseconds())/n, "dataplace-ns/op")
		})
	}
}
