package exp

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"cdcs/internal/alloc"
	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/workload"
)

func init() {
	register("table1", runTable1)
	register("fig1", runFig1)
	register("fig2", runFig2)
	register("fig5", runFig5)
}

// caseStudySchemes are the §II-B columns of Table 1.
func caseStudySchemes() []policy.Scheme {
	return []policy.Scheme{
		policy.SchemeSNUCA, policy.SchemeRNUCA,
		policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS,
	}
}

// runTable1 reproduces Table 1: per-app and weighted speedups on the
// §II-B mix (36-tile CMP, omnet×6 + milc×14 + ilbdc×2).
func runTable1(opts Options) (*Report, error) {
	rep := newReport("table1", "Case study: per-app and weighted speedups (36-tile CMP)")
	env := policy.ScaledEnv(6, 6)
	mix := workload.CaseStudy()

	// All five schemes evaluate the same mix independently (scheme i seeded
	// opts.Seed+i, as before): one engine job per scheme, reported in order
	// against scheme 0 (S-NUCA) as baseline.
	schemes := caseStudySchemes()
	results := make([]sim.MixResult, len(schemes))
	if err := opts.engine().ForEach(len(schemes), func(i int) error {
		res, err := sim.RunMixWith(env, schemes[i], mix, rand.New(rand.NewSource(opts.Seed+int64(i))), nil)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	base := results[0]
	rep.addf("%-10s %8s %8s %8s %8s", "scheme", "omnet", "ilbdc", "milc", "WS")
	for i := range schemes {
		res := results[i]
		per := map[string][]float64{}
		for p, proc := range mix.Procs {
			per[proc.Bench] = append(per[proc.Bench], res.PerApp[p]/base.PerApp[p])
		}
		ws := sim.WeightedSpeedup(res, base)
		rep.addf("%-10s %8.2f %8.2f %8.2f %8.2f",
			res.Scheme, mean(per["omnet"]), mean(per["ilbdc"]), mean(per["milc"]), ws)
		rep.Series["ws"] = append(rep.Series["ws"], ws)
		rep.Series["omnet:"+res.Scheme] = per["omnet"]
		rep.Scalars["ws:"+res.Scheme] = ws
		rep.Scalars["omnet:"+res.Scheme] = mean(per["omnet"])
		rep.Scalars["ilbdc:"+res.Scheme] = mean(per["ilbdc"])
		rep.Scalars["milc:"+res.Scheme] = mean(per["milc"])
	}
	return rep, nil
}

// runFig1 renders the Fig. 1 chip maps: thread placement and per-bank data
// occupancy for Jigsaw+C, Jigsaw+R and CDCS on the case-study mix.
func runFig1(opts Options) (*Report, error) {
	rep := newReport("fig1", "Case study: thread and data placement maps (Fig. 1)")
	env := policy.ScaledEnv(6, 6)
	mix := workload.CaseStudy()

	schemes := []policy.Scheme{policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS}
	results := make([]sim.MixResult, len(schemes))
	if err := opts.engine().ForEach(len(schemes), func(i int) error {
		res, err := sim.RunMixWith(env, schemes[i], mix, rand.New(rand.NewSource(opts.Seed+int64(i))), nil)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	for _, res := range results {
		rep.addf("%s:", res.Scheme)
		renderChipMap(rep, env, mix, res)
		// Mean distance from omnet threads to their data (the Fig. 1b vs 1c
		// contrast: 3.2 hops clustered vs 1.2 random).
		if res.Sched.Core != nil {
			rep.Scalars["omnetHops:"+res.Scheme] = omnetDataHops(env, mix, res)
			rep.addf("  mean omnet data distance: %.2f hops", rep.Scalars["omnetHops:"+res.Scheme])
		}
		rep.addf("")
	}
	return rep, nil
}

// renderChipMap draws the tile grid with thread labels.
func renderChipMap(rep *Report, env policy.Env, mix *workload.Mix, res sim.MixResult) {
	w, h := env.Chip.Topo.Width(), env.Chip.Topo.Height()
	label := make([]string, w*h)
	for i := range label {
		label[i] = "...."
	}
	for t, core := range res.Sched.ThreadCore {
		proc := mix.Procs[mix.Threads[t].Proc]
		short := strings.ToUpper(proc.Bench[:1])
		label[core] = fmt.Sprintf("%s%-3d", short, mix.Threads[t].Proc)
	}
	for y := 0; y < h; y++ {
		row := make([]string, w)
		for x := 0; x < w; x++ {
			row[x] = label[env.Chip.Topo.TileAt(x, y)]
		}
		rep.addf("  %s", strings.Join(row, " "))
	}
}

// omnetDataHops averages, over omnet threads, the access-weighted distance
// to their VC data under a partitioned schedule.
func omnetDataHops(env policy.Env, mix *workload.Mix, res sim.MixResult) float64 {
	core := res.Sched.Core
	sum, n := 0.0, 0
	for t := range mix.Threads {
		proc := mix.Procs[mix.Threads[t].Proc]
		if proc.Bench != "omnet" {
			continue
		}
		// Sorted iteration keeps the float sums map-order independent.
		for _, v := range slices.Sorted(maps.Keys(mix.Threads[t].Access)) {
			size := core.VCSizes[v]
			if size <= 0 {
				continue
			}
			hops := 0.0
			av := &core.Assignment[v]
			for i := 0; i < av.Len(); i++ {
				b, l := av.At(i)
				hops += l / size * float64(env.Chip.Topo.Distance(res.Sched.ThreadCore[t], b))
			}
			sum += hops
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runFig2 prints the calibrated miss curves of omnet, milc and ilbdc
// (the paper's Fig. 2, in MPKI vs MB).
func runFig2(Options) (*Report, error) {
	rep := newReport("fig2", "Application miss curves (Fig. 2)")
	cpu := workload.SPECCPU()
	omp := workload.SPECOMP()
	omnet := workload.ByName(cpu, "omnet")
	milc := workload.ByName(cpu, "milc")
	ilbdc := workload.MTByName(omp, "ilbdc")

	rep.addf("%8s %10s %10s %10s", "MB", "omnet", "milc", "ilbdc(sh)")
	for _, mb := range []float64{0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
		lines := mb * workload.LinesPerMB
		o := omnet.MPKI(lines)
		m := milc.MPKI(lines)
		il := ilbdc.APKI * ilbdc.SharedFrac * 8 * ilbdc.SharedRatio.Eval(lines)
		rep.addf("%8.2f %10.1f %10.1f %10.1f", mb, o, m, il)
		rep.Series["omnet"] = append(rep.Series["omnet"], o)
		rep.Series["milc"] = append(rep.Series["milc"], m)
		rep.Series["ilbdc"] = append(rep.Series["ilbdc"], il)
	}
	rep.Scalars["omnet@1MB"] = omnet.MPKI(1 * workload.LinesPerMB)
	rep.Scalars["omnet@3MB"] = omnet.MPKI(3 * workload.LinesPerMB)
	return rep, nil
}

// runFig5 prints the total-latency decomposition for an omnet-like VC on the
// 64-tile chip: the off-chip/on-chip trade-off and its sweet spot (Fig. 5).
func runFig5(Options) (*Report, error) {
	rep := newReport("fig5", "Access latency vs capacity allocation (Fig. 5)")
	env := policy.DefaultEnv()
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	dist := alloc.CompactDistance(env.Chip.Topo, env.Chip.BankLines)
	total := env.Chip.TotalLines()

	rep.addf("%8s %12s %12s %12s", "MB", "off-chip", "on-chip", "total (cyc/ki)")
	for _, mb := range []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 6, 8, 12, 16, 24, 32} {
		lines := mb * workload.LinesPerMB
		if lines > total {
			break
		}
		off := omnet.APKI * omnet.MissRatio.Eval(lines) * env.Model.MemLatency
		on := omnet.APKI * dist.Eval(lines) * env.Model.HopLatency * env.Model.RoundTrip
		rep.addf("%8.1f %12.1f %12.1f %12.1f", mb, off, on, off+on)
		rep.Series["off"] = append(rep.Series["off"], off)
		rep.Series["on"] = append(rep.Series["on"], on)
		rep.Series["total"] = append(rep.Series["total"], off+on)
	}
	lat := alloc.TotalLatencyCurve(omnet.MissRatio, omnet.APKI, dist, env.Model, total)
	x, y := lat.ArgMin()
	rep.Scalars["sweetSpotMB"] = x / workload.LinesPerMB
	rep.Scalars["sweetSpotLatency"] = y
	rep.addf("sweet spot: %.2f MB (%.1f cycles/ki)", x/workload.LinesPerMB, y)
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
