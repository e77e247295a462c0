package exp

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// quick runs an experiment with small options and basic sanity checks.
func quick(t *testing.T, id string) *Report {
	t.Helper()
	opts := QuickOptions()
	opts.Mixes = 4
	rep, err := Run(id, opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Errorf("%s: report id %q", id, rep.ID)
	}
	if len(rep.Lines) == 0 {
		t.Errorf("%s: empty report", id)
	}
	if !strings.Contains(rep.String(), rep.Title) {
		t.Errorf("%s: String() missing title", id)
	}
	return rep
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", QuickOptions()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig2", "fig5", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "table3",
		"sec6c-ilp", "sec6c-anneal", "sec6c-graph", "sec6c-gmon", "sec6c-bank",
		"ablation-trades", "ablation-gmon-ways", "ablation-chunk",
		"ext-numa", "ext-monitor", "ext-noc", "ext-phases", "ext-hwsim",
		"ext-scaling", "ext-scaling-mt",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registered %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	if !sort.StringsAreSorted(ids) {
		t.Errorf("IDs() not sorted: %v", ids)
	}
}

// TestParallelismBitIdentical runs campaign-backed experiments at worker
// counts 1 and 8 and requires identical reports: the engine's determinism
// guarantee surfaced at the experiment layer.
func TestParallelismBitIdentical(t *testing.T) {
	for _, id := range []string{"fig11", "fig15", "sec6c-anneal"} {
		t.Run(id, func(t *testing.T) {
			opts := QuickOptions()
			opts.Mixes = 3
			opts.Parallelism = 1
			seq, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallelism = 8
			par, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Scalars, par.Scalars) {
				t.Errorf("scalars differ across parallelism:\nseq: %v\npar: %v", seq.Scalars, par.Scalars)
			}
			if !reflect.DeepEqual(seq.Lines, par.Lines) {
				t.Error("report lines differ across parallelism")
			}
		})
	}
}

// TestCanceledContext verifies every experiment aborts with ctx.Err() on a
// pre-canceled context instead of running to completion.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig11", "table3", "ext-hwsim", "ext-phases"} {
		opts := QuickOptions()
		opts.Mixes = 2
		opts.Context = ctx
		if _, err := Run(id, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestProgressReported checks the Progress callback fires for a
// campaign-backed experiment and reaches its total.
func TestProgressReported(t *testing.T) {
	opts := QuickOptions()
	opts.Mixes = 2
	var last, total int
	opts.Progress = func(d, n int) { last, total = d, n }
	if _, err := Run("fig11", opts); err != nil {
		t.Fatal(err)
	}
	if total == 0 || last != total {
		t.Errorf("progress ended at %d/%d, want full completion", last, total)
	}
}

func TestTable1Shape(t *testing.T) {
	rep := quick(t, "table1")
	// Table 1 ordering: CDCS WS highest; R-NUCA modest; omnet gains most
	// under CDCS.
	if rep.Scalars["ws:CDCS"] <= rep.Scalars["ws:Jigsaw+C"] {
		t.Errorf("CDCS WS %.3f <= Jigsaw+C %.3f", rep.Scalars["ws:CDCS"], rep.Scalars["ws:Jigsaw+C"])
	}
	if rep.Scalars["ws:R-NUCA"] <= 1.0 {
		t.Errorf("R-NUCA WS %.3f", rep.Scalars["ws:R-NUCA"])
	}
	if rep.Scalars["omnet:CDCS"] <= rep.Scalars["omnet:R-NUCA"] {
		t.Error("omnet should gain far more under CDCS than R-NUCA")
	}
	// Jigsaw+R gives omnet more than Jigsaw+C (Table 1: 3.99 vs 2.88).
	if rep.Scalars["omnet:Jigsaw+R"] <= rep.Scalars["omnet:Jigsaw+C"] {
		t.Errorf("omnet Jigsaw+R %.2f <= Jigsaw+C %.2f",
			rep.Scalars["omnet:Jigsaw+R"], rep.Scalars["omnet:Jigsaw+C"])
	}
}

func TestFig1OmnetDistance(t *testing.T) {
	rep := quick(t, "fig1")
	// Fig. 1b vs 1c: omnet's data is much closer under random/CDCS placement
	// than clustered.
	if rep.Scalars["omnetHops:Jigsaw+C"] <= rep.Scalars["omnetHops:CDCS"] {
		t.Errorf("clustered omnet distance %.2f not above CDCS %.2f",
			rep.Scalars["omnetHops:Jigsaw+C"], rep.Scalars["omnetHops:CDCS"])
	}
}

func TestFig2Calibration(t *testing.T) {
	rep := quick(t, "fig2")
	if v := rep.Scalars["omnet@1MB"]; v < 60 || v > 100 {
		t.Errorf("omnet@1MB = %.1f MPKI, want ~85", v)
	}
	if v := rep.Scalars["omnet@3MB"]; v > 5 {
		t.Errorf("omnet@3MB = %.1f MPKI, want ~0", v)
	}
}

func TestFig5SweetSpot(t *testing.T) {
	rep := quick(t, "fig5")
	if v := rep.Scalars["sweetSpotMB"]; v < 1.5 || v > 4 {
		t.Errorf("sweet spot at %.2f MB, want ~2.5", v)
	}
}

func TestFig11Ordering(t *testing.T) {
	rep := quick(t, "fig11")
	g := func(s string) float64 { return rep.Scalars["gmean:"+s] }
	if !(g("CDCS") > g("Jigsaw+R") && g("Jigsaw+R") > g("Jigsaw+C") &&
		g("Jigsaw+C") > g("R-NUCA") && g("R-NUCA") > 1.0) {
		t.Errorf("Fig11 ordering broken: CDCS %.3f Jig+R %.3f Jig+C %.3f R-NUCA %.3f",
			g("CDCS"), g("Jigsaw+R"), g("Jigsaw+C"), g("R-NUCA"))
	}
	// S-NUCA has much higher on-chip latency than CDCS (paper: 11x).
	if rep.Scalars["onchip:S-NUCA"] < 3*rep.Scalars["onchip:CDCS"] {
		t.Errorf("S-NUCA on-chip %.1f not >> CDCS %.1f",
			rep.Scalars["onchip:S-NUCA"], rep.Scalars["onchip:CDCS"])
	}
	// CDCS saves energy over S-NUCA (paper: 36%).
	if rep.Scalars["energy:CDCS"] >= rep.Scalars["energy:S-NUCA"] {
		t.Error("CDCS energy not below S-NUCA")
	}
}

func TestFig12FactorTrends(t *testing.T) {
	rep := quick(t, "fig12")
	// At 64 apps thread placement and trades dominate; +LTD is best overall.
	if rep.Scalars["gmean:+LTD:64"] < rep.Scalars["gmean:Jigsaw+R:64"] {
		t.Error("+LTD below Jigsaw+R at 64 apps")
	}
	// At 4 apps latency-aware allocation carries most of the gain:
	// +L beats Jigsaw+R by more at 4 apps than at 64 apps.
	gain4 := rep.Scalars["gmean:+L:4"] - rep.Scalars["gmean:Jigsaw+R:4"]
	gain64 := rep.Scalars["gmean:+L:64"] - rep.Scalars["gmean:Jigsaw+R:64"]
	if gain4 <= gain64 {
		t.Errorf("+L gain at 4 apps (%.3f) not above 64 apps (%.3f)", gain4, gain64)
	}
	if rep.Scalars["gmean:+LTD:4"] < rep.Scalars["gmean:Jigsaw+R:4"] {
		t.Error("+LTD below Jigsaw+R at 4 apps")
	}
}

func TestFig13CDCSHoldsUp(t *testing.T) {
	rep := quick(t, "fig13")
	// CDCS maintains its lead at every occupancy level.
	for _, n := range []int{2, 4, 16, 64} {
		c := rep.Scalars[keyN("gmean", "CDCS", n)]
		jr := rep.Scalars[keyN("gmean", "Jigsaw+R", n)]
		jc := rep.Scalars[keyN("gmean", "Jigsaw+C", n)]
		if c < jr-1e-9 || c < jc-1e-9 {
			t.Errorf("%d apps: CDCS %.3f below Jigsaw (%.3f / %.3f)", n, c, jr, jc)
		}
	}
	// Jigsaw works poorly on small mixes relative to CDCS (paper: 28% vs
	// 17%/6% at 4 apps): the CDCS-Jigsaw gap shrinks as occupancy grows.
	gap4 := rep.Scalars[keyN("gmean", "CDCS", 4)] - rep.Scalars[keyN("gmean", "Jigsaw+C", 4)]
	gap64 := rep.Scalars[keyN("gmean", "CDCS", 64)] - rep.Scalars[keyN("gmean", "Jigsaw+C", 64)]
	if gap4 <= 0 {
		t.Errorf("no CDCS advantage at 4 apps (gap %.3f)", gap4)
	}
	_ = gap64 // magnitude comparison recorded in EXPERIMENTS.md
}

func TestFig15MTReversal(t *testing.T) {
	rep := quick(t, "fig15")
	if rep.Scalars["gmean:Jigsaw+C"] <= rep.Scalars["gmean:Jigsaw+R"] {
		t.Errorf("MT: Jigsaw+C %.3f <= Jigsaw+R %.3f (should reverse)",
			rep.Scalars["gmean:Jigsaw+C"], rep.Scalars["gmean:Jigsaw+R"])
	}
	if rep.Scalars["gmean:CDCS"] < rep.Scalars["gmean:Jigsaw+C"]-0.01 {
		t.Error("CDCS clearly below Jigsaw+C on MT mixes")
	}
}

func TestFig16CaseStudySpreads(t *testing.T) {
	rep := quick(t, "fig16")
	// mgrid (private-heavy) spreads; shared-heavy apps cluster.
	for _, bench := range []string{"md", "ilbdc", "nab"} {
		if rep.Scalars["spread:"+bench] >= rep.Scalars["spread:mgrid"] {
			t.Errorf("%s spread %.2f not tighter than mgrid %.2f",
				bench, rep.Scalars["spread:"+bench], rep.Scalars["spread:mgrid"])
		}
	}
}

func TestFig17Penalties(t *testing.T) {
	rep := quick(t, "fig17")
	pi := rep.Scalars["penalty:instant-moves"]
	pb := rep.Scalars["penalty:background-invs"]
	pk := rep.Scalars["penalty:bulk-invs"]
	if !(pi == 0 && pb > 0 && pk > pb) {
		t.Errorf("penalty ordering wrong: %f / %f / %f", pi, pb, pk)
	}
}

func TestFig18Convergence(t *testing.T) {
	rep := quick(t, "fig18")
	inst := rep.Series["instant"]
	bulk := rep.Series["bulk"]
	if len(inst) != 4 || len(bulk) != 4 {
		t.Fatalf("series lengths %d/%d", len(inst), len(bulk))
	}
	if !(inst[0]-bulk[0] > inst[3]-bulk[3]) {
		t.Error("bulk gap did not shrink with period")
	}
}

func TestTable3Overheads(t *testing.T) {
	rep := quick(t, "table3")
	// The paper's claim: small overheads, growing with scale. Go wall time
	// is not zsim cycles, so assert only the qualitative claims: nonzero,
	// and below a generous bound (paper: 0.2% at 64/64).
	for _, label := range []string{"16/16", "16/64", "64/64"} {
		ovh := rep.Scalars["overheadPct:"+label]
		if ovh <= 0 {
			t.Errorf("%s: zero overhead recorded", label)
		}
		if ovh > 5 {
			t.Errorf("%s: overhead %.2f%% implausibly high", label, ovh)
		}
	}
}

func TestSec6CILPCloseToOptimal(t *testing.T) {
	opts := QuickOptions()
	opts.Mixes = 3
	rep, err := Run("sec6c-ilp", opts)
	if err != nil {
		t.Fatal(err)
	}
	// CDCS within a few percent of the exact optimum (paper: ~0.5% WS).
	if rel := rep.Scalars["cdcsOverOptimal"]; rel < 1.0-1e-9 || rel > 1.25 {
		t.Errorf("CDCS/optimal latency ratio %.3f, want [1, 1.25]", rel)
	}
}

func TestSec6CAnnealClose(t *testing.T) {
	opts := QuickOptions()
	opts.Mixes = 2
	rep, err := Run("sec6c-anneal", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel := rep.Scalars["cdcsOverAnneal"]; rel > 1.35 {
		t.Errorf("annealing beats CDCS by %.3fx, want close", rel)
	}
}

func TestSec6CGMONFidelity(t *testing.T) {
	rep := quick(t, "sec6c-gmon")
	// GMON-64 matches the large UMONs and beats UMON-64, at ~1/8 the state
	// of UMON-512.
	if rep.Scalars["rms:GMON-64w"] > rep.Scalars["rms:UMON-64w"] {
		t.Errorf("GMON RMS %.4f worse than UMON-64 %.4f",
			rep.Scalars["rms:GMON-64w"], rep.Scalars["rms:UMON-64w"])
	}
	if rep.Scalars["rms:GMON-64w"] > 2.5*rep.Scalars["rms:UMON-512w"]+0.02 {
		t.Errorf("GMON RMS %.4f far above UMON-512 %.4f",
			rep.Scalars["rms:GMON-64w"], rep.Scalars["rms:UMON-512w"])
	}
	if rep.Scalars["kb:GMON-64w"] >= rep.Scalars["kb:UMON-512w"] {
		t.Error("GMON not smaller than UMON-512")
	}
}

func TestSec6CBankGranularity(t *testing.T) {
	rep := quick(t, "sec6c-bank")
	if rep.Scalars["gmean:CDCS-bank"] > rep.Scalars["gmean:CDCS"] {
		t.Errorf("bank-granular CDCS %.3f above fine-grained %.3f",
			rep.Scalars["gmean:CDCS-bank"], rep.Scalars["gmean:CDCS"])
	}
	if rep.Scalars["gmean:CDCS-bank"] <= 1.0 {
		t.Error("bank-granular CDCS should still beat S-NUCA")
	}
}

// TestExtMixesValidate checks the adjacency invariants of the mixes the
// ext-phases and ext-hwsim experiments build by hand.
func TestExtMixesValidate(t *testing.T) {
	apps := phasedApps()
	for epoch := 0; epoch < 4; epoch++ {
		if err := mixAtEpoch(apps, epoch).Validate(); err != nil {
			t.Errorf("ext-phases epoch %d: %v", epoch, err)
		}
	}
	if err := scaledMix().Validate(); err != nil {
		t.Errorf("ext-hwsim: %v", err)
	}
}
