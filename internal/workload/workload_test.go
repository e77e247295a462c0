package workload

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSPECCPUProfiles(t *testing.T) {
	profiles := SPECCPU()
	if len(profiles) != 16 {
		t.Fatalf("SPECCPU has %d profiles, want 16 (the paper's >=5 MPKI subset)", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.APKI <= 0 || p.CPIBase <= 0 || p.MLP < 1 {
			t.Errorf("%s: implausible parameters APKI=%g CPI=%g MLP=%g", p.Name, p.APKI, p.CPIBase, p.MLP)
		}
		// Miss ratios stay in [0,1] at all knots.
		for i := 0; i < p.MissRatio.Len(); i++ {
			_, y := p.MissRatio.Knot(i)
			if y < 0 || y > 1 {
				t.Errorf("%s: miss ratio %g out of [0,1]", p.Name, y)
			}
		}
		// LRU-like: miss ratio never increases with capacity.
		if !p.MissRatio.IsNonIncreasing() {
			t.Errorf("%s: miss-ratio curve increases with capacity", p.Name)
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	cpu := SPECCPU()
	omnet := ByName(cpu, "omnet")
	milc := ByName(cpu, "milc")
	if omnet == nil || milc == nil {
		t.Fatal("missing omnet or milc")
	}
	// Paper Fig. 2: omnet ~85 MPKI below 2.5MB; near zero above.
	if m := omnet.MPKI(1 * LinesPerMB); m < 60 || m > 100 {
		t.Errorf("omnet MPKI@1MB = %g, want ~85", m)
	}
	if m := omnet.MPKI(3 * LinesPerMB); m > 5 {
		t.Errorf("omnet MPKI@3MB = %g, want near zero (fits)", m)
	}
	// milc: flat ~25 MPKI everywhere.
	lo, hi := milc.MPKI(0.25*LinesPerMB), milc.MPKI(16*LinesPerMB)
	if lo < 20 || lo > 32 || hi < 20 || hi > 32 {
		t.Errorf("milc MPKI not flat ~25: %g @0.25MB, %g @16MB", lo, hi)
	}
	// ilbdc: small 512KB shared footprint.
	ilbdc := MTByName(SPECOMP(), "ilbdc")
	if ilbdc == nil {
		t.Fatal("missing ilbdc")
	}
	before := ilbdc.SharedRatio.Eval(0.25 * LinesPerMB)
	after := ilbdc.SharedRatio.Eval(1 * LinesPerMB)
	if after > before/4 {
		t.Errorf("ilbdc shared data should fit by 1MB: ratio %g -> %g", before, after)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Streaming:   "streaming",
		Fitting:     "fitting",
		Friendly:    "friendly",
		Insensitive: "insensitive",
		Class(99):   "Class(99)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String()=%q, want %q", int(c), got, want)
		}
	}
}

func TestSPECOMPProfiles(t *testing.T) {
	profiles := SPECOMP()
	if len(profiles) != 8 {
		t.Fatalf("SPECOMP has %d profiles, want 8", len(profiles))
	}
	for _, p := range profiles {
		if p.Threads != 8 {
			t.Errorf("%s: %d threads, want 8", p.Name, p.Threads)
		}
		if p.SharedFrac < 0 || p.SharedFrac > 1 {
			t.Errorf("%s: SharedFrac=%g", p.Name, p.SharedFrac)
		}
		if !p.PrivRatio.IsNonIncreasing() || !p.SharedRatio.IsNonIncreasing() {
			t.Errorf("%s: increasing miss-ratio curve", p.Name)
		}
	}
	// Case-study roles: mgrid private-heavy, md/nab/ilbdc shared-heavy.
	if mgrid := MTByName(profiles, "mgrid"); mgrid.SharedFrac > 0.3 {
		t.Errorf("mgrid should be private-heavy, SharedFrac=%g", mgrid.SharedFrac)
	}
	for _, name := range []string{"md", "nab", "ilbdc"} {
		if p := MTByName(profiles, name); p.SharedFrac < 0.5 {
			t.Errorf("%s should be shared-heavy, SharedFrac=%g", name, p.SharedFrac)
		}
	}
}

func TestByNameMissing(t *testing.T) {
	if ByName(SPECCPU(), "nosuch") != nil {
		t.Error("ByName returned non-nil for missing profile")
	}
	if MTByName(SPECOMP(), "nosuch") != nil {
		t.Error("MTByName returned non-nil for missing profile")
	}
}

func TestAddSTStructure(t *testing.T) {
	cpu := SPECCPU()
	m := NewMix().AddST(ByName(cpu, "omnet")).AddST(ByName(cpu, "omnet"))
	if len(m.Procs) != 2 || len(m.Threads) != 2 || len(m.VCs) != 2 {
		t.Fatalf("mix sizes: %d procs %d threads %d VCs", len(m.Procs), len(m.Threads), len(m.VCs))
	}
	if m.Procs[0].Name != "omnet#1" || m.Procs[1].Name != "omnet#2" {
		t.Errorf("instance names: %q, %q", m.Procs[0].Name, m.Procs[1].Name)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	th := m.Threads[0]
	if len(th.VCs) != 1 {
		t.Errorf("ST thread accesses %d VCs, want 1", len(th.VCs))
	}
	if th.Rates[0] != ByName(cpu, "omnet").APKI {
		t.Errorf("thread APKI %g != profile APKI", th.Rates[0])
	}
}

func TestAddMTStructure(t *testing.T) {
	omp := SPECOMP()
	ilbdc := MTByName(omp, "ilbdc")
	m := NewMix().AddMT(ilbdc)
	if len(m.Threads) != 8 {
		t.Fatalf("%d threads, want 8", len(m.Threads))
	}
	if len(m.VCs) != 9 { // 8 private + 1 shared
		t.Fatalf("%d VCs, want 9", len(m.VCs))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	shared := 0
	for _, vc := range m.VCs {
		if vc.Kind == ProcessShared {
			shared++
			if len(vc.Threads) != 8 {
				t.Errorf("shared VC has %d accessors, want 8", len(vc.Threads))
			}
			// Shared intensity: 8 threads × APKI × SharedFrac.
			want := 8 * ilbdc.APKI * ilbdc.SharedFrac
			if got := vc.TotalAPKI(); !within(got, want, 1e-9) {
				t.Errorf("shared VC TotalAPKI=%g, want %g", got, want)
			}
		}
	}
	if shared != 1 {
		t.Errorf("%d shared VCs, want 1", shared)
	}
	// Thread access split respects SharedFrac.
	th := m.Threads[0]
	if got := th.Rates[0] + th.Rates[1]; !within(got, ilbdc.APKI, 1e-9) {
		t.Errorf("thread APKI=%g, want %g", got, ilbdc.APKI)
	}
}

func TestRandomSTDeterministic(t *testing.T) {
	cpu := SPECCPU()
	a := RandomST(rand.New(rand.NewSource(12)), cpu, 64)
	b := RandomST(rand.New(rand.NewSource(12)), cpu, 64)
	if len(a.Procs) != 64 || len(b.Procs) != 64 {
		t.Fatalf("wrong mix size")
	}
	for i := range a.Procs {
		if a.Procs[i].Name != b.Procs[i].Name {
			t.Fatalf("mixes differ at %d: %q vs %q", i, a.Procs[i].Name, b.Procs[i].Name)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRandomMT(t *testing.T) {
	m := RandomMT(rand.New(rand.NewSource(5)), SPECOMP(), 8)
	if len(m.Procs) != 8 {
		t.Fatalf("%d procs, want 8", len(m.Procs))
	}
	if len(m.Threads) != 64 {
		t.Fatalf("%d threads, want 64", len(m.Threads))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCaseStudyMix(t *testing.T) {
	m := CaseStudy()
	if len(m.Threads) != 6+14+16 {
		t.Fatalf("case study has %d threads, want 36", len(m.Threads))
	}
	counts := map[string]int{}
	for _, p := range m.Procs {
		counts[p.Bench]++
	}
	if counts["omnet"] != 6 || counts["milc"] != 14 || counts["ilbdc"] != 2 {
		t.Errorf("case-study composition wrong: %v", counts)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFig16CaseStudyMix(t *testing.T) {
	m := Fig16CaseStudy()
	if len(m.Procs) != 4 || len(m.Threads) != 32 {
		t.Fatalf("fig16 mix: %d procs %d threads", len(m.Procs), len(m.Threads))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestVCKindString(t *testing.T) {
	if ThreadPrivate.String() != "private" || ProcessShared.String() != "shared" {
		t.Error("VCKind strings wrong")
	}
}

func within(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// The presized random mixes must equal mixes built app by app from NewMix
// on the same rng: presizing changes where the lists live, not what they
// hold.
func TestRandomMixMatchesRepeatedAdd(t *testing.T) {
	cpu, omp := SPECCPU(), SPECOMP()
	for _, n := range []int{0, 1, 7, 64, 1024} {
		got := RandomST(rand.New(rand.NewSource(int64(n))), cpu, n)
		rng := rand.New(rand.NewSource(int64(n)))
		want := NewMix()
		for i := 0; i < n; i++ {
			want.AddST(cpu[rng.Intn(len(cpu))])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RandomST n=%d differs from %d AddST calls", n, n)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("RandomST n=%d: %v", n, err)
		}
	}
	for _, n := range []int{0, 1, 5, 32} {
		got := RandomMT(rand.New(rand.NewSource(int64(n))), omp, n)
		rng := rand.New(rand.NewSource(int64(n)))
		want := NewMix()
		for i := 0; i < n; i++ {
			want.AddMT(omp[rng.Intn(len(omp))])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RandomMT n=%d differs from %d AddMT calls", n, n)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("RandomMT n=%d: %v", n, err)
		}
	}
	// Mixing both kinds app by app carves lists across array boundaries.
	m := NewMix()
	for i := 0; i < 40; i++ {
		m.AddST(cpu[i%len(cpu)])
		m.AddMT(omp[i%len(omp)])
	}
	if err := m.Validate(); err != nil {
		t.Errorf("interleaved AddST/AddMT: %v", err)
	}
}

// A 1,024-app random mix allocates one name per app and a handful of
// arrays; before presizing it made about 4,100 allocations (three lists
// per app, plus regrowth).
func TestRandomSTAllocs(t *testing.T) {
	cpu := SPECCPU()
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(20, func() {
		rng.Seed(1)
		RandomST(rng, cpu, 1024)
	})
	if allocs > 1100 {
		t.Errorf("RandomST(1024) made %.0f allocations, want at most 1100", allocs)
	}
}
