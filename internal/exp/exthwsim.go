package exp

import (
	"fmt"
	"math/rand"

	"cdcs/internal/cachesim"
	"cdcs/internal/core"
	"cdcs/internal/curves"
	"cdcs/internal/mesh"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/trace"
	"cdcs/internal/vtb"
	"cdcs/internal/workload"
)

func init() {
	register("ext-hwsim", runExtHWSim)
}

// runExtHWSim validates the analytic capacity model against array-level
// simulation: a CDCS reconfiguration is computed for a scaled chip, its
// assignment is installed as VTB descriptors and Vantage partition targets
// on real set-associative banks, synthetic traces with each VC's true
// stack-distance profile drive the LLC, and measured per-VC hit ratios are
// compared against the model's 1 − MissRatio(allocation) prediction. This is
// the end-to-end check that partitioned banks ganged by descriptors behave
// like one cache of their aggregate size (§III).
func runExtHWSim(opts Options) (*Report, error) {
	rep := newReport("ext-hwsim", "Array-level validation of the capacity model (§III)")

	// Scaled chip: 4×4 tiles, 2048-line banks (the full chip scaled 1/16;
	// curve domains scale with it).
	chip := place.Chip{Topo: mesh.New(4, 4), BankLines: 2048}
	env := policy.DefaultEnv()

	mix := scaledMix()
	cfg := core.Config{Chip: chip, Model: env.Model, Feats: core.AllCDCS()}
	res, err := core.ReconfigureWith(cfg, mix, nil, nil)
	if err != nil {
		return nil, err
	}

	// 2048-line banks: 128 sets × 16 ways.
	llc := sim.NewMoveLLC(chip.Banks(), 128, 16, len(mix.VCs))
	gens := make([]*trace.Generator, len(mix.VCs))
	weights := make([]float64, len(mix.VCs))
	rng := rand.New(rand.NewSource(opts.Seed))
	for v := range mix.VCs {
		alloc := map[int]float64{}
		av := &res.Assignment[v]
		for i := 0; i < av.Len(); i++ {
			b, l := av.At(i)
			alloc[int(b)] = l
		}
		if len(alloc) == 0 {
			// Zero-capacity VCs still need a home bank for lookups: the
			// lowest-id accessor's local bank, with a zero partition target.
			if ts := mix.VCs[v].Threads; len(ts) > 0 {
				alloc[int(res.ThreadCore[ts[0]])] = 1
			}
		}
		d, err := vtb.BuildDescriptor(vtb.DefaultBuckets, alloc, partIDs(alloc, v))
		if err != nil {
			return nil, fmt.Errorf("VC %d: %w", v, err)
		}
		if err := llc.Install(v, d, res.VCSizes[v]); err != nil {
			return nil, err
		}
		gens[v] = trace.NewGenerator(mix.VCs[v].MissRatio, cachesim.Addr(v)<<40, rng)
		weights[v] = mix.VCs[v].TotalAPKI()
	}

	total := 900000
	warmup := 400000
	if opts.Quick {
		total, warmup = 450000, 200000
	}
	hits := make([]int64, len(mix.VCs))
	accs := make([]int64, len(mix.VCs))
	wsum := 0.0
	for _, w := range weights {
		wsum += w
	}
	ctx := opts.ctx()
	for i := 0; i < total; i++ {
		// The trace replay is inherently sequential (one stateful LLC, one
		// rng stream) but long; poll for cancellation periodically.
		if i&0xffff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		u := rng.Float64() * wsum
		v := 0
		for ; v < len(weights)-1; v++ {
			if u < weights[v] {
				break
			}
			u -= weights[v]
		}
		hit, err := llc.Access(v, gens[v].Next())
		if err != nil {
			return nil, err
		}
		if i >= warmup {
			accs[v]++
			if hit {
				hits[v]++
			}
		}
	}

	rep.addf("%6s %10s %12s %12s %10s", "VC", "alloc", "predicted", "measured", "|err|")
	var maxErr, meanErr float64
	n := 0
	for v := range mix.VCs {
		if accs[v] < 1000 {
			continue
		}
		pred := 1 - mix.VCs[v].MissRatio.Eval(res.VCSizes[v])
		meas := float64(hits[v]) / float64(accs[v])
		errv := meas - pred
		if errv < 0 {
			errv = -errv
		}
		rep.addf("%6d %10.0f %12.3f %12.3f %10.3f", v, res.VCSizes[v], pred, meas, errv)
		meanErr += errv
		if errv > maxErr {
			maxErr = errv
		}
		n++
	}
	if n > 0 {
		meanErr /= float64(n)
	}
	rep.Scalars["meanErr"] = meanErr
	rep.Scalars["maxErr"] = maxErr
	rep.addf("hit-ratio error vs analytic model: mean %.3f, max %.3f", meanErr, maxErr)
	return rep, nil
}

// scaledMix builds a 1/16-scale heterogeneous mix: two fitting apps, two
// streaming apps, and two small-footprint apps on 16 cores.
func scaledMix() *workload.Mix {
	scale := 1.0 / 16
	mb := func(m float64) float64 { return m * workload.LinesPerMB * scale }
	cliffCurve := func(high, low, fp float64) curves.Curve {
		return curves.New(
			[]float64{0, 0.6 * fp, 0.95 * fp, fp, 32768},
			[]float64{high, high * 0.9, high * 0.5, low, low})
	}
	fitting := &workload.Profile{Name: "fit", APKI: 60, CPIBase: 0.75, MLP: 1.5,
		MissRatio: cliffCurve(0.9, 0.03, mb(2.5))}
	streaming := &workload.Profile{Name: "str", APKI: 25, CPIBase: 0.8, MLP: 3,
		MissRatio: curves.Constant(0.96, 32768)}
	small := &workload.Profile{Name: "sml", APKI: 15, CPIBase: 0.8, MLP: 2,
		MissRatio: cliffCurve(0.7, 0.05, mb(0.5))}
	m := workload.NewMix()
	m.AddST(fitting).AddST(fitting)
	m.AddST(streaming).AddST(streaming)
	m.AddST(small).AddST(small)
	return m
}

// partIDs maps each bank in an allocation to the VC's partition id (the VC
// id itself: MoveLLC keys partitions by VC).
func partIDs(alloc map[int]float64, vc int) map[int]int {
	out := make(map[int]int, len(alloc))
	for b := range alloc {
		out[b] = vc
	}
	return out
}
