package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cdcs/internal/alloc"
	"cdcs/internal/mesh"
	"cdcs/internal/place"
	"cdcs/internal/workload"
)

// testConfig returns the paper's 64-tile configuration scaled constants.
func testConfig(w, h int, feats Features) Config {
	return Config{
		Chip:  place.Chip{Topo: mesh.New(w, h), BankLines: 8192},
		Model: alloc.LatencyModel{MemLatency: 150, HopLatency: 4, RoundTrip: 2},
		Feats: feats,
	}
}

// clustered packs n threads onto cores in index order (Jigsaw+C).
func clustered(cfg Config, n int) []mesh.Tile {
	out := make([]mesh.Tile, n)
	for i := range out {
		out[i] = mesh.Tile(i % cfg.Chip.Banks())
	}
	return out
}

func TestReconfigureCaseStudyShape(t *testing.T) {
	// §II-B: 36-tile chip, 6×omnet + 14×milc + 2×ilbdc(8t). CDCS should give
	// omnet multi-bank VCs, milc nearly nothing, and ilbdc its footprint.
	cfg := testConfig(6, 6, AllCDCS())
	mix := workload.CaseStudy()
	res, err := ReconfigureWith(cfg, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(cfg.Chip, Demands(mix, res.VCSizes), 1); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}

	var omnetSize, milcSize, ilbdcShared float64
	var omnetN, milcN, ilbdcN int
	for v := range mix.VCs {
		proc := mix.Procs[mix.VCs[v].Proc]
		switch {
		case proc.Bench == "omnet":
			omnetSize += res.VCSizes[v]
			omnetN++
		case proc.Bench == "milc":
			milcSize += res.VCSizes[v]
			milcN++
		case proc.Bench == "ilbdc" && mix.VCs[v].Kind == workload.ProcessShared:
			ilbdcShared += res.VCSizes[v]
			ilbdcN++
		}
	}
	omnetAvgMB := omnetSize / float64(omnetN) / workload.LinesPerMB
	if omnetAvgMB < 2.0 || omnetAvgMB > 3.5 {
		t.Errorf("omnet VCs average %.2f MB, want ~2.5MB (paper)", omnetAvgMB)
	}
	if milcAvg := milcSize / float64(milcN) / workload.LinesPerMB; milcAvg > 0.15 {
		t.Errorf("milc VCs average %.2f MB, want near zero (streaming)", milcAvg)
	}
	if avg := ilbdcShared / float64(ilbdcN) / workload.LinesPerMB; avg < 0.3 || avg > 1.0 {
		t.Errorf("ilbdc shared VCs average %.2f MB, want ~0.5MB", avg)
	}
}

func TestReconfigureSpreadsOmnetClustersIlbdc(t *testing.T) {
	// The Fig. 1d behaviour: omnet threads spread out, ilbdc threads
	// clustered around their shared data.
	cfg := testConfig(6, 6, AllCDCS())
	mix := workload.CaseStudy()
	res, err := ReconfigureWith(cfg, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Collect thread ids.
	var omnetThreads []int
	ilbdcThreads := map[int][]int{} // per process
	for _, p := range mix.Procs {
		switch p.Bench {
		case "omnet":
			omnetThreads = append(omnetThreads, p.ThreadIDs...)
		case "ilbdc":
			ilbdcThreads[p.ThreadIDs[0]] = p.ThreadIDs
		}
	}
	// omnet: minimum pairwise distance should be > 1 (not adjacent-packed).
	minD := 1 << 30
	for i := 0; i < len(omnetThreads); i++ {
		for j := i + 1; j < len(omnetThreads); j++ {
			d := cfg.Chip.Topo.Distance(res.ThreadCore[omnetThreads[i]], res.ThreadCore[omnetThreads[j]])
			if d < minD {
				minD = d
			}
		}
	}
	if minD < 2 {
		t.Errorf("omnet min pairwise distance %d, want >=2 (spread)", minD)
	}
	// ilbdc: each process's threads should be mutually close (clustered).
	for _, ids := range ilbdcThreads {
		maxD := 0
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				d := cfg.Chip.Topo.Distance(res.ThreadCore[ids[i]], res.ThreadCore[ids[j]])
				if d > maxD {
					maxD = d
				}
			}
		}
		if maxD > 6 {
			t.Errorf("ilbdc process spread %d hops, want clustered (<=6)", maxD)
		}
	}
}

func TestFactorFlagsChangeBehaviour(t *testing.T) {
	mix := workload.RandomST(rand.New(rand.NewSource(3)), workload.SPECCPU(), 16)
	base := testConfig(8, 8, Features{})
	fixed := clustered(base, len(mix.Threads))

	// Jigsaw-like (all off): uses all capacity.
	resJ, err := ReconfigureWith(base, mix, fixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	usedJ := 0.0
	for _, s := range resJ.VCSizes {
		usedJ += s
	}
	if usedJ < base.Chip.TotalLines()-1 {
		t.Errorf("miss-only allocation used %g of %g lines", usedJ, base.Chip.TotalLines())
	}
	// Threads untouched.
	for i, c := range resJ.ThreadCore {
		if c != fixed[i] {
			t.Fatalf("thread %d moved without +T", i)
		}
	}
	if resJ.Trades != 0 {
		t.Error("trades executed without +D")
	}

	// +L: with only fitting and streaming apps, capacity must be left
	// unused (friendly decay-curve apps can legitimately soak everything,
	// so use a deterministic mix where the sweet spot is unambiguous).
	cpu := workload.SPECCPU()
	mixL := workload.NewMix()
	for i := 0; i < 2; i++ {
		mixL.AddST(workload.ByName(cpu, "omnet"))
		mixL.AddST(workload.ByName(cpu, "milc"))
	}
	cfgL := base
	cfgL.Feats.LatencyAware = true
	fixedL := clustered(cfgL, len(mixL.Threads))
	resL, err := ReconfigureWith(cfgL, mixL, fixedL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resJL, err := ReconfigureWith(base, mixL, fixedL, nil)
	if err != nil {
		t.Fatal(err)
	}
	usedL, usedJL := 0.0, 0.0
	for v := range resL.VCSizes {
		usedL += resL.VCSizes[v]
		usedJL += resJL.VCSizes[v]
	}
	if usedL >= usedJL {
		t.Errorf("latency-aware allocation used %g lines, miss-only %g: want less", usedL, usedJL)
	}
	if usedL > 8*workload.LinesPerMB {
		t.Errorf("latency-aware used %.1f MB for 2 omnet + 2 milc, want ~5MB", usedL/workload.LinesPerMB)
	}

	// +T: thread placement differs from clustered and lowers Eq. 2.
	cfgT := base
	cfgT.Feats.ThreadPlace = true
	resT, err := ReconfigureWith(cfgT, mix, fixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	latJ := resJ.OnChipLatency(base, mix)
	latT := resT.OnChipLatency(cfgT, mix)
	if latT >= latJ {
		t.Errorf("+T on-chip latency %g not better than clustered %g", latT, latJ)
	}

	// +D: trades reduce latency further from the greedy start.
	cfgD := base
	cfgD.Feats.RefinedTrades = true
	resD, err := ReconfigureWith(cfgD, mix, fixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	latD := resD.OnChipLatency(cfgD, mix)
	if latD > latJ+1e-6 {
		t.Errorf("+D latency %g worse than greedy %g", latD, latJ)
	}
}

func TestFullCDCSBeatsBaselines(t *testing.T) {
	// On random 64-app mixes, full CDCS on-chip latency beats Jigsaw with
	// clustered or random threads.
	rng := rand.New(rand.NewSource(7))
	mix := workload.RandomST(rng, workload.SPECCPU(), 64)
	cfgCDCS := testConfig(8, 8, AllCDCS())
	resC, err := ReconfigureWith(cfgCDCS, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgJ := testConfig(8, 8, Features{})
	fixedC := clustered(cfgJ, 64)
	resJC, err := ReconfigureWith(cfgJ, mix, fixedC, nil)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(8)).Perm(64)
	resJR, err := ReconfigureWith(cfgJ, mix, place.RandomThreads(cfgJ.Chip, 64, perm), nil)
	if err != nil {
		t.Fatal(err)
	}
	latC := resC.OnChipLatency(cfgCDCS, mix)
	latJC := resJC.OnChipLatency(cfgJ, mix)
	latJR := resJR.OnChipLatency(cfgJ, mix)
	if latC >= latJC || latC >= latJR {
		t.Errorf("CDCS on-chip latency %g not better than Jigsaw+C %g / Jigsaw+R %g", latC, latJC, latJR)
	}
}

func TestBankGranularAllocation(t *testing.T) {
	cfg := testConfig(8, 8, AllCDCS())
	cfg.BankGranular = true
	mix := workload.RandomST(rand.New(rand.NewSource(11)), workload.SPECCPU(), 32)
	res, err := ReconfigureWith(cfg, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range res.VCSizes {
		if rem := s - float64(int(s/8192))*8192; rem > 1e-6 {
			t.Errorf("VC %d size %g not bank-aligned", v, s)
		}
	}
}

func TestReconfigureErrors(t *testing.T) {
	cfg := testConfig(2, 2, AllCDCS())
	mix := workload.RandomST(rand.New(rand.NewSource(1)), workload.SPECCPU(), 5)
	if _, err := ReconfigureWith(cfg, mix, nil, nil); err == nil {
		t.Error("5 threads on 4 cores accepted")
	}
	cfg2 := testConfig(8, 8, Features{})
	mix2 := workload.RandomST(rand.New(rand.NewSource(1)), workload.SPECCPU(), 4)
	if _, err := ReconfigureWith(cfg2, mix2, []mesh.Tile{0}, nil); err == nil {
		t.Error("short fixed placement accepted")
	}
}

func TestTimingPopulated(t *testing.T) {
	cfg := testConfig(8, 8, AllCDCS())
	mix := workload.RandomST(rand.New(rand.NewSource(2)), workload.SPECCPU(), 64)
	res, err := ReconfigureWith(cfg, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tm := res.Timing; tm.Alloc+tm.VCPlace+tm.ThreadPlace+tm.DataPlace <= 0 {
		t.Error("timing not recorded")
	}
}

func TestReconfigureDeterministic(t *testing.T) {
	cfg := testConfig(8, 8, AllCDCS())
	run := func() Result {
		mix := workload.RandomST(rand.New(rand.NewSource(5)), workload.SPECCPU(), 48)
		res, err := ReconfigureWith(cfg, mix, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.VCSizes {
		if a.VCSizes[i] != b.VCSizes[i] {
			t.Fatalf("VC %d size differs across identical runs", i)
		}
	}
	for i := range a.ThreadCore {
		if a.ThreadCore[i] != b.ThreadCore[i] {
			t.Fatalf("thread %d core differs across identical runs", i)
		}
	}

	// A nil arena gives the same result, bit for bit, as a warm reused one on
	// every allocation path: latency-aware (CDCS), miss curves handing out
	// all capacity (Jigsaw) and whole-bank quantization. A nil-arena result
	// is independent: a later nil-arena call on another mix leaves it intact.
	jigsaw := cfg
	jigsaw.Feats = Features{}
	bank := cfg
	bank.BankGranular = true
	mix := workload.RandomST(rand.New(rand.NewSource(5)), workload.SPECCPU(), 48)
	fixed := clustered(cfg, len(mix.Threads))
	other := workload.RandomST(rand.New(rand.NewSource(6)), workload.SPECCPU(), 64)
	ar := NewArena()
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"CDCS", cfg}, {"Jigsaw", jigsaw}, {"BankGranular", bank}} {
		want, err := ReconfigureWith(c.cfg, mix, fixed, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := cloneResult(want)
		for round := 0; round < 2; round++ {
			got, err := ReconfigureWith(c.cfg, mix, fixed, ar)
			if err != nil {
				t.Fatal(err)
			}
			if diff := resultDiff(got, want); diff != "" {
				t.Fatalf("%s round %d: warm arena differs from nil arena: %s", c.name, round, diff)
			}
		}
		if _, err := ReconfigureWith(c.cfg, other, clustered(cfg, 64), nil); err != nil {
			t.Fatal(err)
		}
		if diff := resultDiff(want, kept); diff != "" {
			t.Fatalf("%s: a later call overwrote a nil-arena result: %s", c.name, diff)
		}
	}
}

// cloneResult deep-copies the parts of a Result an arena could share.
func cloneResult(r Result) Result {
	r.VCSizes = slices.Clone(r.VCSizes)
	r.Assignment = r.Assignment.Clone()
	r.ThreadCore = slices.Clone(r.ThreadCore)
	r.Optimistic.Center = slices.Clone(r.Optimistic.Center)
	r.Optimistic.Claims = r.Optimistic.Claims.Clone()
	r.Optimistic.CoM = slices.Clone(r.Optimistic.CoM)
	return r
}

// resultDiff describes the first bit-level difference between two results'
// co-schedules ("" when identical); timings are ignored.
func resultDiff(a, b Result) string {
	switch {
	case !slices.Equal(a.VCSizes, b.VCSizes):
		return "VC sizes"
	case !slices.Equal(a.ThreadCore, b.ThreadCore):
		return "thread placement"
	case !slices.Equal(a.Optimistic.Center, b.Optimistic.Center) || !slices.Equal(a.Optimistic.CoM, b.Optimistic.CoM):
		return "optimistic placement"
	case a.Trades != b.Trades || a.TradeGain != b.TradeGain:
		return fmt.Sprintf("trades %d/%v vs %d/%v", a.Trades, a.TradeGain, b.Trades, b.TradeGain)
	}
	for _, p := range [][2]place.Assignment{{a.Assignment, b.Assignment}, {a.Optimistic.Claims, b.Optimistic.Claims}} {
		if len(p[0]) != len(p[1]) {
			return "assignment length"
		}
		for v := range p[0] {
			x, y := &p[0][v], &p[1][v]
			if x.Len() != y.Len() {
				return fmt.Sprintf("VC %d bank count", v)
			}
			for i := 0; i < x.Len(); i++ {
				bx, lx := x.At(i)
				by, ly := y.At(i)
				if bx != by || lx != ly {
					return fmt.Sprintf("VC %d bank %d", v, bx)
				}
			}
		}
	}
	return ""
}

func TestMultithreadedMixPlacement(t *testing.T) {
	// Fig. 16 case study: mgrid (private-heavy) spreads, md/ilbdc/nab
	// (shared-heavy) cluster. 32 threads on 64 cores.
	cfg := testConfig(8, 8, AllCDCS())
	mix := workload.Fig16CaseStudy()
	res, err := ReconfigureWith(cfg, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	spreadOf := func(ids []int) float64 {
		sum, n := 0.0, 0
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				sum += float64(cfg.Chip.Topo.Distance(res.ThreadCore[ids[i]], res.ThreadCore[ids[j]]))
				n++
			}
		}
		return sum / float64(n)
	}
	var mgridSpread float64
	sharedSpreads := map[string]float64{}
	for _, p := range mix.Procs {
		s := spreadOf(p.ThreadIDs)
		if p.Bench == "mgrid" {
			mgridSpread = s
		} else {
			sharedSpreads[p.Bench] = s
		}
	}
	for bench, s := range sharedSpreads {
		if s >= mgridSpread {
			t.Errorf("%s (shared-heavy) spread %.2f not tighter than mgrid %.2f", bench, s, mgridSpread)
		}
	}
}
