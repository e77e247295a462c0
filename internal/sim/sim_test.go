package sim

import (
	"cdcs/internal/cachesim"
	"cdcs/internal/vtb"
	"math/rand"
	"testing"

	"cdcs/internal/policy"
	"cdcs/internal/workload"
)

func TestRunMixCaseStudy(t *testing.T) {
	env := policy.ScaledEnv(6, 6)
	mix := workload.CaseStudy()
	base, err := RunMixWith(env, policy.SchemeSNUCA, mix, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	cdcs, err := RunMixWith(env, policy.SchemeCDCS, mix, rand.New(rand.NewSource(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.PerApp) != 22 { // 6 omnet + 14 milc + 2 ilbdc
		t.Fatalf("PerApp has %d entries, want 22", len(base.PerApp))
	}
	ws := WeightedSpeedup(cdcs, base)
	if ws < 1.2 {
		t.Errorf("CDCS case-study WS=%.3f, want >1.2 (paper: 1.56)", ws)
	}
	// Per-app shape (Table 1): omnet speeds up the most.
	var omnetSp, milcSp float64
	for p, proc := range mix.Procs {
		sp := cdcs.PerApp[p] / base.PerApp[p]
		switch proc.Bench {
		case "omnet":
			omnetSp += sp / 6
		case "milc":
			milcSp += sp / 14
		}
	}
	if omnetSp < 1.8 {
		t.Errorf("omnet speedup %.2f, want large (paper: 4.0)", omnetSp)
	}
	if milcSp < 1.0 {
		t.Errorf("milc slowed down: %.2f (bandwidth relief should help)", milcSp)
	}
	if omnetSp <= milcSp {
		t.Errorf("omnet (%.2f) should gain more than milc (%.2f)", omnetSp, milcSp)
	}
}

func TestRunMixLatencyBreakdownOrdering(t *testing.T) {
	env := policy.DefaultEnv()
	mix := workload.RandomST(rand.New(rand.NewSource(3)), workload.SPECCPU(), 64)
	snuca, err := RunMixWith(env, policy.SchemeSNUCA, mix, rand.New(rand.NewSource(4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	rnuca, err := RunMixWith(env, policy.SchemeRNUCA, mix, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	cdcs, err := RunMixWith(env, policy.SchemeCDCS, mix, rand.New(rand.NewSource(6)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 11b: S-NUCA has far higher on-chip latency than CDCS; R-NUCA the
	// lowest (everything local).
	if snuca.OnChipPKI < 3*cdcs.OnChipPKI {
		t.Errorf("S-NUCA on-chip %.1f not >> CDCS %.1f", snuca.OnChipPKI, cdcs.OnChipPKI)
	}
	if rnuca.OnChipPKI > cdcs.OnChipPKI {
		t.Errorf("R-NUCA on-chip %.1f above CDCS %.1f", rnuca.OnChipPKI, cdcs.OnChipPKI)
	}
	// Fig. 11c: R-NUCA pays in off-chip latency vs CDCS.
	if rnuca.OffChipPKI < 1.15*cdcs.OffChipPKI {
		t.Errorf("R-NUCA off-chip %.1f not clearly above CDCS %.1f", rnuca.OffChipPKI, cdcs.OffChipPKI)
	}
	// Fig. 11d: S-NUCA generates much more traffic than CDCS.
	if snuca.Chip.TrafficPerInstr.Total() < 1.5*cdcs.Chip.TrafficPerInstr.Total() {
		t.Errorf("S-NUCA traffic %.2f not >> CDCS %.2f",
			snuca.Chip.TrafficPerInstr.Total(), cdcs.Chip.TrafficPerInstr.Total())
	}
	// Fig. 11e: CDCS uses less energy than S-NUCA.
	if cdcs.Chip.EnergyPerInstr.Total() >= snuca.Chip.EnergyPerInstr.Total() {
		t.Error("CDCS energy not below S-NUCA")
	}
}

func TestRunCampaignOrdering(t *testing.T) {
	env := policy.DefaultEnv()
	schemes := []policy.Scheme{
		policy.SchemeSNUCA, policy.SchemeRNUCA,
		policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS,
	}
	cpu := workload.SPECCPU()
	res, err := Engine{}.RunCampaign(env, schemes, 5, 42, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomST(rng, cpu, 64)
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CampaignResult{}
	for _, r := range res {
		byName[r.Scheme] = r
	}
	// Fig. 11a ordering: CDCS > Jigsaw+R > Jigsaw+C > R-NUCA > 1.0.
	if !(byName["CDCS"].Gmean > byName["Jigsaw+R"].Gmean) {
		t.Errorf("CDCS %.3f <= Jigsaw+R %.3f", byName["CDCS"].Gmean, byName["Jigsaw+R"].Gmean)
	}
	if !(byName["Jigsaw+R"].Gmean > byName["Jigsaw+C"].Gmean) {
		t.Errorf("Jigsaw+R %.3f <= Jigsaw+C %.3f", byName["Jigsaw+R"].Gmean, byName["Jigsaw+C"].Gmean)
	}
	if !(byName["Jigsaw+C"].Gmean > byName["R-NUCA"].Gmean) {
		t.Errorf("Jigsaw+C %.3f <= R-NUCA %.3f", byName["Jigsaw+C"].Gmean, byName["R-NUCA"].Gmean)
	}
	if !(byName["R-NUCA"].Gmean > 1.0) {
		t.Errorf("R-NUCA gmean %.3f <= 1", byName["R-NUCA"].Gmean)
	}
	// Baseline is exactly 1 for every mix.
	for _, ws := range byName["S-NUCA"].WS {
		if ws != 1 {
			t.Errorf("baseline WS %.3f != 1", ws)
		}
	}
}

func TestRunCampaignMTOrderReversal(t *testing.T) {
	// §VI-B: on multithreaded mixes Jigsaw+C beats Jigsaw+R, and CDCS is at
	// least as good as both.
	env := policy.DefaultEnv()
	schemes := []policy.Scheme{
		policy.SchemeSNUCA, policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS,
	}
	omp := workload.SPECOMP()
	res, err := Engine{}.RunCampaign(env, schemes, 5, 17, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomMT(rng, omp, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CampaignResult{}
	for _, r := range res {
		byName[r.Scheme] = r
	}
	if !(byName["Jigsaw+C"].Gmean > byName["Jigsaw+R"].Gmean) {
		t.Errorf("MT: Jigsaw+C %.3f <= Jigsaw+R %.3f (trend should reverse)",
			byName["Jigsaw+C"].Gmean, byName["Jigsaw+R"].Gmean)
	}
	if byName["CDCS"].Gmean < byName["Jigsaw+C"].Gmean-0.005 {
		t.Errorf("MT: CDCS %.3f below Jigsaw+C %.3f", byName["CDCS"].Gmean, byName["Jigsaw+C"].Gmean)
	}
}

func TestMoveLLCDemandMoves(t *testing.T) {
	llc := NewMoveLLC(4, 64, 8, 2)
	// VC 0 initially lives in bank 0.
	d0 := mustDescriptor(t, map[int]float64{0: 1})
	if err := llc.Install(0, d0, 512); err != nil {
		t.Fatal(err)
	}
	// Warm 200 lines.
	for i := 0; i < 200; i++ {
		llc.Access(0, cachesim.Addr(i))
	}
	warmMisses := llc.Misses
	// Re-access: all hits.
	for i := 0; i < 200; i++ {
		hit, err := llc.Access(0, cachesim.Addr(i))
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("warm line %d missed", i)
		}
	}
	// Reconfigure VC 0 to bank 2: demand moves should serve hot lines
	// without memory misses.
	d2 := mustDescriptor(t, map[int]float64{2: 1})
	if err := llc.Install(0, d2, 512); err != nil {
		t.Fatal(err)
	}
	if !llc.Reconfiguring() {
		t.Fatal("shadow not active after reinstall")
	}
	for i := 0; i < 200; i++ {
		hit, err := llc.Access(0, cachesim.Addr(i))
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("moved line %d missed (should demand-move)", i)
		}
	}
	if llc.DemandMoves == 0 {
		t.Fatal("no demand moves recorded")
	}
	if llc.Misses != warmMisses {
		t.Errorf("reconfiguration added %d memory misses", llc.Misses-warmMisses)
	}
	// Coherence invariant: one copy per line.
	for i := 0; i < 200; i++ {
		if n := llc.Resident(cachesim.Addr(i)); n > 1 {
			t.Fatalf("line %d resident in %d banks", i, n)
		}
	}
}

func TestMoveLLCBackgroundWalk(t *testing.T) {
	llc := NewMoveLLC(4, 64, 8, 2)
	d0 := mustDescriptor(t, map[int]float64{0: 1})
	llc.Install(0, d0, 512)
	for i := 0; i < 300; i++ {
		llc.Access(0, cachesim.Addr(i))
	}
	d1 := mustDescriptor(t, map[int]float64{1: 1})
	llc.Install(0, d1, 512)
	// Without any accesses, the background walk alone must finish the
	// reconfiguration and drop stale lines.
	steps := 0
	for llc.BackgroundStep() {
		steps++
		if steps > 1000 {
			t.Fatal("background walk did not terminate")
		}
	}
	if llc.Reconfiguring() {
		t.Error("shadow still active after walk")
	}
	if llc.BGInvals == 0 {
		t.Error("walk invalidated nothing")
	}
	// All old-bank copies are gone.
	for i := 0; i < 300; i++ {
		if llc.banks[0].Contains(cachesim.Addr(i)) {
			t.Fatalf("stale line %d still in old bank after walk", i)
		}
	}
}

func TestSimulateReconfigShapes(t *testing.T) {
	p := DefaultReconfigParams()
	const window, at, bucket = 2e6, 2e5, 1e4
	instant := SimulateReconfig(p, InstantMoves, window, at, bucket)
	bg := SimulateReconfig(p, BackgroundInvs, window, at, bucket)
	bulk := SimulateReconfig(p, BulkInvs, window, at, bucket)

	steady := float64(p.Cores) * p.SteadyIPC
	// Instant: flat at steady state.
	for _, pt := range instant {
		if !within(pt.AggIPC, steady, 1e-9) {
			t.Fatalf("instant trace not flat: %v", pt)
		}
	}
	minOf := func(tr []IPCPoint) float64 {
		m := tr[0].AggIPC
		for _, pt := range tr {
			if pt.AggIPC < m {
				m = pt.AggIPC
			}
		}
		return m
	}
	// Bulk: full pause (IPC 0); background: a dip but never a pause.
	if minOf(bulk) != 0 {
		t.Errorf("bulk trace min %.2f, want 0 (pause)", minOf(bulk))
	}
	bgMin := minOf(bg)
	if bgMin <= 0.5*steady || bgMin >= steady {
		t.Errorf("background dip %.2f, want shallow (between 50%% and 100%% of %.2f)", bgMin, steady)
	}
	// Both recover to steady by the end of the window.
	if last := bulk[len(bulk)-1].AggIPC; last < 0.95*steady {
		t.Errorf("bulk did not recover: %.2f", last)
	}
	if last := bg[len(bg)-1].AggIPC; last < 0.99*steady {
		t.Errorf("background did not recover: %.2f", last)
	}
}

func TestReconfigPenaltyOrdering(t *testing.T) {
	p := DefaultReconfigParams()
	pi := ReconfigPenalty(p, InstantMoves)
	pb := ReconfigPenalty(p, BackgroundInvs)
	pk := ReconfigPenalty(p, BulkInvs)
	if pi != 0 {
		t.Errorf("instant penalty %.0f, want 0", pi)
	}
	if !(pb > 0 && pb < pk) {
		t.Errorf("penalty ordering wrong: instant %.0f, background %.0f, bulk %.0f", pi, pb, pk)
	}
	// Bulk pause alone is >= PauseCycles.
	if pk < p.PauseCycles {
		t.Errorf("bulk penalty %.0f below pause %.0f", pk, p.PauseCycles)
	}
}

func TestEffectiveWSConvergesWithPeriod(t *testing.T) {
	p := DefaultReconfigParams()
	steady := 1.46
	periods := []float64{10e6, 25e6, 50e6, 100e6}
	prevGap := 1.0
	for _, period := range periods {
		bulk := EffectiveWS(steady, p, BulkInvs, period)
		bg := EffectiveWS(steady, p, BackgroundInvs, period)
		inst := EffectiveWS(steady, p, InstantMoves, period)
		if !(inst >= bg && bg >= bulk) {
			t.Fatalf("period %g: ordering violated inst=%.4f bg=%.4f bulk=%.4f", period, inst, bg, bulk)
		}
		gap := inst - bulk
		if gap >= prevGap {
			t.Fatalf("gap did not shrink with period: %.4f -> %.4f", prevGap, gap)
		}
		prevGap = gap
	}
}

func mustDescriptor(t *testing.T, alloc map[int]float64) vtb.Descriptor {
	t.Helper()
	d, err := vtb.BuildDescriptor(vtb.DefaultBuckets, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func within(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
