package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cdcs/internal/alloc"
	"cdcs/internal/core"
	"cdcs/internal/curves"
	"cdcs/internal/mesh"
	"cdcs/internal/place"
	"cdcs/internal/sim"
	"cdcs/internal/workload"
)

// perVCSizes is step 1 without shared curves: every VC builds its own cost
// curve into a fresh slot, and Peekahead hulls each one on a fresh arena.
func perVCSizes(cfg core.Config, mix *workload.Mix) []float64 {
	total := cfg.Chip.TotalLines()
	dist := alloc.CompactDistance(cfg.Chip.Topo, cfg.Chip.BankLines)
	costs := make([]curves.Curve, len(mix.VCs))
	for v := range mix.VCs {
		vc := &mix.VCs[v]
		if cfg.Feats.LatencyAware {
			costs[v] = alloc.TotalLatencyPrefixInto(curves.Curve{}, vc.MissRatio, vc.TotalAPKI(), dist, cfg.Model, total)
		} else {
			costs[v] = alloc.MissLatencyCurveInto(curves.Curve{}, vc.MissRatio, vc.TotalAPKI(), cfg.Model, total)
		}
	}
	switch {
	case cfg.BankGranular:
		return alloc.PeekaheadQuantizedIn(nil, costs, total, cfg.Chip.BankLines)
	case cfg.Feats.LatencyAware:
		return alloc.PeekaheadIn(nil, costs, total)
	default:
		return alloc.PeekaheadFullIn(nil, costs, total)
	}
}

// monitored returns a copy of mix whose VCs carry GMON-measured miss curves:
// one distinct curve per VC, so no two VCs share a class.
func monitored(mix *workload.Mix, totalLines float64) *workload.Mix {
	measured, err := sim.Engine{}.MonitoredMix(mix, totalLines, 20000, 7)
	if err != nil {
		panic(err) // a default Engine's per-VC jobs cannot fail
	}
	m := *mix
	m.VCs = slices.Clone(mix.VCs)
	for v := range m.VCs {
		m.VCs[v].MissRatio = measured[v]
	}
	return &m
}

// TestSharedCostCurvesMatchPerVC checks that building one cost curve and one
// hull per (miss curve, APKI) class sizes every VC exactly as a per-VC build
// does. The rounds share one arena while the class and VC counts rise and
// fall, so a builder that let a VC header from one round alias a slot that a
// later round rebuilds would corrupt a curve and fail here.
func TestSharedCostCurvesMatchPerVC(t *testing.T) {
	model := alloc.LatencyModel{MemLatency: 150, HopLatency: 4, RoundTrip: 2}
	chip := func(side int) place.Chip {
		return place.Chip{Topo: mesh.New(side, side), BankLines: 8192}
	}
	rng := rand.New(rand.NewSource(3))
	st := func(n int) *workload.Mix { return workload.RandomST(rng, workload.SPECCPU(), n) }
	st64 := st(64)
	mon64 := monitored(st64, chip(8).TotalLines())
	rounds := []struct {
		name string
		side int
		mix  *workload.Mix
	}{
		{"st64", 8, st64},
		{"st5", 8, st(5)},
		{"mt8", 8, workload.RandomMT(rng, workload.SPECOMP(), 8)},
		{"monitored64", 8, mon64},
		{"casestudy", 6, workload.CaseStudy()},
		{"st40", 8, st(40)},
		{"fig16", 8, workload.Fig16CaseStudy()},
		{"st1", 8, st(1)},
		{"monitored64-again", 8, mon64},
		{"st64-again", 8, st64},
	}
	variants := []struct {
		name         string
		feats        core.Features
		bankGranular bool
	}{
		{"cdcs", core.AllCDCS(), false},
		{"miss-curves", core.Features{ThreadPlace: true}, false},
		{"cdcs-bank", core.AllCDCS(), true},
		{"miss-curves-bank", core.Features{ThreadPlace: true}, true},
	}
	for _, vr := range variants {
		ar := core.NewArena()
		for _, r := range rounds {
			cfg := core.Config{Chip: chip(r.side), Model: model, BankGranular: vr.bankGranular, Feats: vr.feats}
			res, err := core.ReconfigureWith(cfg, r.mix, nil, ar)
			if err != nil {
				t.Fatalf("%s/%s: %v", vr.name, r.name, err)
			}
			want := perVCSizes(cfg, r.mix)
			for v := range want {
				if math.Float64bits(res.VCSizes[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s/%s: VC %d sized %v with shared curves, %v per VC",
						vr.name, r.name, v, res.VCSizes[v], want[v])
				}
			}
		}
	}
}
