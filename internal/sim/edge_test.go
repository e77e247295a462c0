package sim

import (
	"math/rand"
	"testing"

	"cdcs/internal/policy"
	"cdcs/internal/workload"
)

// Edge cases and failure injection for the simulation stack: degenerate
// systems, over-committed mixes, and pathological workloads must either
// work or fail loudly — never return garbage.

func TestSingleTileSystem(t *testing.T) {
	env := policy.ScaledEnv(1, 1)
	mix := workload.NewMix().AddST(workload.ByName(workload.SPECCPU(), "milc"))
	for _, sc := range []policy.Scheme{policy.SchemeSNUCA, policy.SchemeRNUCA, policy.SchemeCDCS} {
		res, err := RunMixWith(env, sc, mix, rand.New(rand.NewSource(1)), nil)
		if err != nil {
			t.Fatalf("%s on 1x1: %v", sc.Name(), err)
		}
		if res.Chip.AggIPC <= 0 {
			t.Fatalf("%s on 1x1: non-positive IPC", sc.Name())
		}
		// One bank: every access is local under any scheme.
		if res.OnChipPKI != 0 {
			t.Errorf("%s on 1x1: on-chip latency %g, want 0", sc.Name(), res.OnChipPKI)
		}
	}
}

func TestOverCommittedMixFailsLoudly(t *testing.T) {
	env := policy.ScaledEnv(2, 2)
	mix := workload.RandomST(rand.New(rand.NewSource(1)), workload.SPECCPU(), 5)
	for _, sc := range []policy.Scheme{policy.SchemeSNUCA, policy.SchemeCDCS} {
		if _, err := RunMixWith(env, sc, mix, rand.New(rand.NewSource(2)), nil); err == nil {
			t.Errorf("%s accepted 5 threads on 4 cores", sc.Name())
		}
	}
}

func TestAllStreamingMix(t *testing.T) {
	// Every VC is streaming: CDCS allocates (nearly) nothing, and nothing
	// breaks downstream (zero-size VCs, empty assignments).
	env := policy.DefaultEnv()
	mix := workload.NewMix()
	milc := workload.ByName(workload.SPECCPU(), "milc")
	for i := 0; i < 32; i++ {
		mix.AddST(milc)
	}
	res, err := RunMixWith(env, policy.SchemeCDCS, mix, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, size := range res.Sched.VCSizes {
		if size > 1024 {
			t.Errorf("streaming VC %d allocated %g lines", v, size)
		}
	}
	if res.Chip.AggIPC <= 0 {
		t.Error("all-streaming mix produced non-positive IPC")
	}
	// Memory is the bottleneck: utilization should be high.
	if res.Chip.MemUtilization < 0.5 {
		t.Errorf("mem utilization %.2f for 32 streaming apps, want high", res.Chip.MemUtilization)
	}
}

func TestSingleAppFullChip(t *testing.T) {
	// One omnet alone on 64 tiles: CDCS should beat S-NUCA through locality
	// even with zero capacity contention.
	env := policy.DefaultEnv()
	mix := workload.NewMix().AddST(workload.ByName(workload.SPECCPU(), "omnet"))
	base, err := RunMixWith(env, policy.SchemeSNUCA, mix, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	cdcs, err := RunMixWith(env, policy.SchemeCDCS, mix, rand.New(rand.NewSource(4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws := WeightedSpeedup(cdcs, base); ws <= 1.0 {
		t.Errorf("lone omnet: CDCS WS %.3f, want > 1", ws)
	}
}

func TestCampaignPropagatesErrors(t *testing.T) {
	env := policy.ScaledEnv(2, 2)
	_, err := Engine{}.RunCampaign(env, []policy.Scheme{policy.SchemeSNUCA}, 1, 1,
		func(rng *rand.Rand) *workload.Mix {
			return workload.RandomST(rng, workload.SPECCPU(), 10) // too many
		})
	if err == nil {
		t.Error("campaign swallowed an over-commit error")
	}
}

func TestMixedSTAndMTMix(t *testing.T) {
	// Heterogeneous mixes (the §II-B shape) run under every scheme.
	env := policy.DefaultEnv()
	mix := workload.NewMix()
	cpu := workload.SPECCPU()
	omp := workload.SPECOMP()
	mix.AddST(workload.ByName(cpu, "omnet"))
	mix.AddMT(workload.MTByName(omp, "ilbdc"))
	mix.AddST(workload.ByName(cpu, "milc"))
	for _, sc := range []policy.Scheme{
		policy.SchemeSNUCA, policy.SchemeRNUCA,
		policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS,
	} {
		res, err := RunMixWith(env, sc, mix, rand.New(rand.NewSource(5)), nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if len(res.PerApp) != 3 {
			t.Fatalf("%s: %d per-app entries, want 3", sc.Name(), len(res.PerApp))
		}
		for p, rate := range res.PerApp {
			if rate <= 0 {
				t.Fatalf("%s: app %d progress %g", sc.Name(), p, rate)
			}
		}
	}
}

func TestReconfigParamsDegenerate(t *testing.T) {
	// Zero moved fraction: every scheme behaves like instant moves.
	p := DefaultReconfigParams()
	p.MovedFraction = 0
	for _, s := range []MoveScheme{BackgroundInvs} {
		if pen := ReconfigPenalty(p, s); pen > 1 {
			t.Errorf("%v penalty %g with nothing moved", s, pen)
		}
	}
	// Bulk still pauses (the tag walk happens regardless).
	if pen := ReconfigPenalty(p, BulkInvs); pen < p.PauseCycles {
		t.Errorf("bulk penalty %g below pause time", pen)
	}
}

func TestSimulateReconfigPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid window accepted")
		}
	}()
	SimulateReconfig(DefaultReconfigParams(), BulkInvs, 0, 0, 0)
}
