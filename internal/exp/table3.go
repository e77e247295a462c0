package exp

import (
	"math/rand"
	"strconv"
	"time"

	"cdcs/internal/alloc"
	"cdcs/internal/core"
	"cdcs/internal/mesh"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/workload"
)

func init() {
	register("table3", runTable3)
}

// runTable3 reproduces Table 3: the runtime of each reconfiguration step at
// 16 threads / 16 cores, 16 / 64 and 64 / 64, reported in Mcycles at 2GHz
// and as overhead of a 25ms reconfiguration period. Wall time is measured
// over repeated runs of the actual Go implementation; the comparison target
// is the paper's claim that overheads stay ~0.2% of system cycles.
func runTable3(opts Options) (*Report, error) {
	rep := newReport("table3", "CDCS runtime per reconfiguration step (Table 3)")
	type point struct {
		threads int
		w, h    int
	}
	// The paper reports 16/16, 16/64 and 64/64 and projects 1.2% overhead at
	// 1024 cores; the 256/256 point measures the quadratic scaling directly.
	points := []point{{16, 4, 4}, {16, 8, 8}, {64, 8, 8}, {256, 16, 16}}
	const freqGHz = 2.0
	const periodMs = 25.0
	reps := 5
	if opts.Quick {
		reps = 2
	}

	rep.addf("%-14s %12s %12s %12s %12s %10s", "threads/cores",
		"alloc(Mcyc)", "thread(Mcyc)", "data(Mcyc)", "total(Mcyc)", "ovh@25ms")
	// Table 3 measures wall time of the reconfiguration steps, so the runs
	// stay strictly sequential — concurrent jobs would contend for cores and
	// inflate the measured latencies. Cancellation is still honored between
	// points.
	ctx := opts.ctx()
	for _, pt := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		env := policy.ScaledEnv(pt.w, pt.h)
		cfg := core.Config{
			Chip:  place.Chip{Topo: mesh.New(pt.w, pt.h), BankLines: env.Chip.BankLines},
			Model: alloc.LatencyModel{MemLatency: env.Model.MemLatency, HopLatency: env.Model.HopLatency, RoundTrip: env.Model.RoundTrip},
			Feats: core.AllCDCS(),
		}
		var tAlloc, tThread, tData time.Duration
		for r := 0; r < reps; r++ {
			mix := workload.RandomST(rand.New(rand.NewSource(opts.Seed+int64(r))), workload.SPECCPU(), pt.threads)
			res, err := core.ReconfigureWith(cfg, mix, nil, nil)
			if err != nil {
				return nil, err
			}
			tAlloc += res.Timing.Alloc
			tThread += res.Timing.ThreadPlace
			// VC placement is part of the data-placement budget in Table 3.
			tData += res.Timing.VCPlace + res.Timing.DataPlace
		}
		toMcyc := func(d time.Duration) float64 {
			return d.Seconds() / float64(reps) * freqGHz * 1e9 / 1e6
		}
		aM, tM, dM := toMcyc(tAlloc), toMcyc(tThread), toMcyc(tData)
		total := aM + tM + dM
		// The runtime occupies one core for `total` cycles out of
		// period×cores system cycles (the paper's "0.2% of system cycles").
		systemMcyc := periodMs * 1e-3 * freqGHz * 1e9 / 1e6 * float64(pt.w*pt.h)
		ovh := total / systemMcyc * 100
		label := strconv.Itoa(pt.threads) + "/" + strconv.Itoa(pt.w*pt.h)
		rep.addf("%-14s %12.2f %12.2f %12.2f %12.2f %9.3f%%", label, aM, tM, dM, total, ovh)
		rep.Scalars["totalMcyc:"+label] = total
		rep.Scalars["overheadPct:"+label] = ovh
	}
	return rep, nil
}
