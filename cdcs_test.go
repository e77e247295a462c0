package cdcs

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestDefaultSystem(t *testing.T) {
	sys := DefaultSystem()
	if sys.Cores() != 64 {
		t.Errorf("Cores=%d, want 64", sys.Cores())
	}
	if sys.LLCBytes() != 32<<20 {
		t.Errorf("LLC=%d bytes, want 32MB", sys.LLCBytes())
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{MeshWidth: 0, MeshHeight: 8, BankKB: 512}); err == nil {
		t.Error("invalid mesh accepted")
	}
	if _, err := NewSystem(Config{MeshWidth: 8, MeshHeight: 8, BankKB: 0}); err == nil {
		t.Error("invalid bank accepted")
	}
	sys, err := NewSystem(Config{MeshWidth: 6, MeshHeight: 6, BankKB: 512})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cores() != 36 {
		t.Errorf("Cores=%d, want 36", sys.Cores())
	}
}

func TestMixConstruction(t *testing.T) {
	m := NewMix()
	if err := m.Add("omnet", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddMT("ilbdc", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("nosuch", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := m.AddMT("nosuch", 1); err == nil {
		t.Error("unknown MT benchmark accepted")
	}
	if m.Apps() != 3 || m.Threads() != 10 {
		t.Errorf("mix: %d apps, %d threads", m.Apps(), m.Threads())
	}
	names := m.AppNames()
	if names[0] != "omnet#1" || names[2] != "ilbdc#1" {
		t.Errorf("names=%v", names)
	}
}

func TestBenchmarksLists(t *testing.T) {
	if got := len(Benchmarks()); got != 16 {
		t.Errorf("%d ST benchmarks, want 16", got)
	}
	if got := len(MTBenchmarks()); got != 8 {
		t.Errorf("%d MT benchmarks, want 8", got)
	}
}

func TestRandomMixErrors(t *testing.T) {
	if _, err := RandomMix(1, 0); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := RandomMTMix(1, 0); err == nil {
		t.Error("empty MT mix accepted")
	}
}

func TestRunAndCompare(t *testing.T) {
	sys := DefaultSystem()
	mix, err := RandomMix(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := sys.Compare(mix, 7, SNUCA, RNUCA, JigsawC, JigsawR, CDCS)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline != "S-NUCA" {
		t.Errorf("baseline %q", cmp.Baseline)
	}
	if ws := cmp.WeightedSpeedup["S-NUCA"]; ws != 1 {
		t.Errorf("baseline WS=%g", ws)
	}
	if cmp.WeightedSpeedup["CDCS"] <= cmp.WeightedSpeedup["Jigsaw+R"] {
		t.Errorf("CDCS %.3f <= Jigsaw+R %.3f",
			cmp.WeightedSpeedup["CDCS"], cmp.WeightedSpeedup["Jigsaw+R"])
	}
	res := cmp.Results["CDCS"]
	if len(res.PerApp) != 64 || len(res.ThreadCores) != 64 {
		t.Errorf("result shapes wrong: %d apps, %d threads", len(res.PerApp), len(res.ThreadCores))
	}
	if res.AggIPC <= 0 || res.EnergyPJPerInstr <= 0 {
		t.Error("result metrics not populated")
	}
}

func TestCompareNeedsSchemes(t *testing.T) {
	sys := DefaultSystem()
	mix, _ := RandomMix(1, 4)
	if _, err := sys.Compare(mix, 1); err == nil {
		t.Error("Compare with no schemes accepted")
	}
}

func TestRunTooManyThreads(t *testing.T) {
	sys, _ := NewSystem(Config{MeshWidth: 2, MeshHeight: 2, BankKB: 512})
	mix, _ := RandomMix(1, 8)
	if _, err := sys.Run(CDCS, mix, 1); err == nil {
		t.Error("8 threads on 4 cores accepted")
	}
}

func TestCDCSVariantLabels(t *testing.T) {
	if name := CDCSVariant(true, false, false).Name(); name != "CDCS[L]" {
		t.Errorf("variant name %q", name)
	}
	if name := CDCSVariant(true, true, true).Name(); name != "CDCS[LTD]" {
		t.Errorf("variant name %q", name)
	}
}

func TestCDCSVariantBehaves(t *testing.T) {
	sys := DefaultSystem()
	mix, _ := RandomMix(11, 64)
	cmp, err := sys.Compare(mix, 11, SNUCA, CDCSVariant(false, false, false), CDCS)
	if err != nil {
		t.Fatal(err)
	}
	// All-off variant ~ Jigsaw+R; full CDCS at least as good.
	if cmp.WeightedSpeedup["CDCS"] < cmp.WeightedSpeedup["CDCS[]"] {
		t.Errorf("full CDCS %.3f below bare variant %.3f",
			cmp.WeightedSpeedup["CDCS"], cmp.WeightedSpeedup["CDCS[]"])
	}
}

func TestCompareWithOptionsDeterministic(t *testing.T) {
	sys := DefaultSystem()
	mix, err := RandomMix(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{SNUCA, JigsawR, CDCS}
	seq, err := sys.CompareWithOptions(mix, 7, RunOptions{Parallelism: 1}, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sys.CompareWithOptions(mix, 7, RunOptions{Parallelism: 8}, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.WeightedSpeedup, par.WeightedSpeedup) {
		t.Errorf("weighted speedups differ across parallelism:\nseq: %v\npar: %v",
			seq.WeightedSpeedup, par.WeightedSpeedup)
	}
	// And identical to the plain Compare path.
	plain, err := sys.Compare(mix, 7, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.WeightedSpeedup, seq.WeightedSpeedup) {
		t.Error("Compare and CompareWithOptions disagree")
	}
}

// TestConcurrentRunAndCompareOneMix runs Run and Compare on one mix from two
// goroutines. A built mix is read-only, so neither call may write to it
// (go test -race checks), and both results must equal sequential runs on
// separately built copies.
func TestConcurrentRunAndCompareOneMix(t *testing.T) {
	sys := DefaultSystem()
	build := func() *Mix {
		m := NewMix()
		if err := m.Add("omnet", 6); err != nil {
			t.Fatal(err)
		}
		if err := m.AddMT("ilbdc", 2); err != nil {
			t.Fatal(err)
		}
		return m
	}
	schemes := []Scheme{SNUCA, CDCS}
	wantRun, err := sys.Run(CDCS, build(), 3)
	if err != nil {
		t.Fatal(err)
	}
	wantCmp, err := sys.Compare(build(), 3, schemes...)
	if err != nil {
		t.Fatal(err)
	}

	mix := build()
	var (
		wg             sync.WaitGroup
		gotRun         *Result
		gotCmp         *Comparison
		errRun, errCmp error
	)
	wg.Add(2)
	go func() { defer wg.Done(); gotRun, errRun = sys.Run(CDCS, mix, 3) }()
	go func() { defer wg.Done(); gotCmp, errCmp = sys.Compare(mix, 3, schemes...) }()
	wg.Wait()
	if errRun != nil || errCmp != nil {
		t.Fatalf("Run: %v, Compare: %v", errRun, errCmp)
	}
	if !reflect.DeepEqual(gotRun, wantRun) {
		t.Errorf("concurrent Run differs from a sequential one:\ngot  %+v\nwant %+v", gotRun, wantRun)
	}
	if !reflect.DeepEqual(gotCmp, wantCmp) {
		t.Errorf("concurrent Compare differs from a sequential one:\ngot  %+v\nwant %+v", gotCmp, wantCmp)
	}
}

func TestCompareWithOptionsCanceled(t *testing.T) {
	sys := DefaultSystem()
	mix, _ := RandomMix(1, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.CompareWithOptions(mix, 1, RunOptions{Context: ctx}, SNUCA, CDCS); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := ExperimentWithOptions("fig11", true, RunOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("experiment err = %v, want context.Canceled", err)
	}
}

func TestExperimentWithOptionsProgress(t *testing.T) {
	var last, total int
	out, err := ExperimentWithOptions("fig14", true, RunOptions{
		Progress: func(d, n int) { last, total = d, n },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CDCS") {
		t.Error("report missing CDCS row")
	}
	if total == 0 || last != total {
		t.Errorf("progress ended at %d/%d", last, total)
	}
}

func TestExperimentAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	out, err := Experiment("fig2", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "omnet") {
		t.Errorf("fig2 output missing curves:\n%s", out)
	}
	if _, err := Experiment("nope", true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCaseStudyMixOn36Cores(t *testing.T) {
	sys, _ := NewSystem(Config{MeshWidth: 6, MeshHeight: 6, BankKB: 512})
	mix := CaseStudyMix()
	cmp, err := sys.Compare(mix, 3, SNUCA, CDCS)
	if err != nil {
		t.Fatal(err)
	}
	if ws := cmp.WeightedSpeedup["CDCS"]; ws < 1.2 {
		t.Errorf("case-study CDCS WS %.3f, want >1.2", ws)
	}
}
