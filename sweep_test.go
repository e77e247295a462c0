package cdcs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestSweepCanonicalDefaults(t *testing.T) {
	c, err := SweepRequest{Mixes: []MixSpec{{Kind: MixCaseStudy}}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if len(c.Mesh) != 1 || c.Mesh[0] != (MeshSize{Width: def.MeshWidth, Height: def.MeshHeight}) {
		t.Errorf("mesh axis defaulted to %v", c.Mesh)
	}
	if len(c.BankKB) != 1 || c.BankKB[0] != def.BankKB {
		t.Errorf("bank axis defaulted to %v", c.BankKB)
	}
	if len(c.Schemes) != 5 {
		t.Errorf("schemes defaulted to %v", c.Schemes)
	}
	if c.NumCells() != 1 {
		t.Errorf("default grid has %d cells, want 1", c.NumCells())
	}
}

func TestSweepValidation(t *testing.T) {
	for name, req := range map[string]SweepRequest{
		"no mixes":       {},
		"bad mesh":       {Mesh: []MeshSize{{0, 4}}, Mixes: []MixSpec{{Kind: MixCaseStudy}}},
		"oversize mesh":  {Mesh: []MeshSize{{129, 128}}, Mixes: []MixSpec{{Kind: MixCaseStudy}}},
		"bad bank":       {BankKB: []int{0}, Mixes: []MixSpec{{Kind: MixCaseStudy}}},
		"bad latency":    {HopLatency: []float64{-1}, Mixes: []MixSpec{{Kind: MixCaseStudy}}},
		"bad mix":        {Mixes: []MixSpec{{Kind: "nope"}}},
		"unknown scheme": {Mixes: []MixSpec{{Kind: MixCaseStudy}}, Schemes: []string{"NUCA-9000"}},
	} {
		if _, err := req.Canonical(); err == nil {
			t.Errorf("%s: Canonical() accepted an invalid sweep", name)
		}
	}
	// The cell cap: 17 values on three axes and 2 mixes exceeds MaxSweepCells.
	big := SweepRequest{
		BankKB:      make([]int, 17),
		HopLatency:  make([]float64, 17),
		MemChannels: make([]int, 17),
		Mixes:       []MixSpec{{Kind: MixCaseStudy}, {Kind: MixRandom, Seed: 1, N: 4}},
	}
	for i := range big.BankKB {
		big.BankKB[i] = 128 + i
		big.HopLatency[i] = float64(1 + i)
		big.MemChannels[i] = 1 + i
	}
	if _, err := big.Canonical(); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("oversized grid: err=%v", err)
	}
}

func TestSweepCellCapSurvivesOverflow(t *testing.T) {
	// Four 65536-element axes make the naive cell product wrap int64 to 0;
	// the cap must still reject the grid (this shape fits a sub-1MB JSON
	// body, so it is remotely reachable through POST /v1/sweep).
	huge := SweepRequest{Mixes: []MixSpec{{Kind: MixCaseStudy}}}
	huge.Mesh = []MeshSize{{Width: 8, Height: 8}}
	huge.MemChannels = []int{8}
	huge.BankKB = make([]int, 65536)
	huge.BankLatency = make([]float64, 65536)
	huge.HopLatency = make([]float64, 65536)
	huge.MemLatency = make([]float64, 65536)
	for i := 0; i < 65536; i++ {
		huge.BankKB[i] = 512
		huge.BankLatency[i] = 9
		huge.HopLatency[i] = 4
		huge.MemLatency[i] = 120
	}
	if n := huge.NumCells(); n <= MaxSweepCells {
		t.Fatalf("NumCells()=%d under the cap for a 65536^4-cell grid", n)
	}
	if _, err := huge.Canonical(); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("overflowing grid accepted: err=%v", err)
	}
	if _, err := huge.Cells(); err == nil {
		t.Error("Cells() expanded an overflowing grid")
	}
}

func TestSweepHashStableAcrossSpelledDefaults(t *testing.T) {
	a, err := SweepRequest{Mixes: []MixSpec{{Kind: MixCaseStudy}}, Seed: 3}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	b, err := SweepRequest{
		Mesh:        []MeshSize{{def.MeshWidth, def.MeshHeight}},
		BankKB:      []int{def.BankKB},
		BankLatency: []float64{def.BankLatency},
		HopLatency:  []float64{def.HopLatency},
		MemLatency:  []float64{def.MemLatency},
		MemChannels: []int{def.MemChannels},
		Mixes:       []MixSpec{{Kind: MixCaseStudy}},
		Schemes:     SchemeNames(),
		Seed:        3,
	}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("spelled-out default axes changed the sweep hash")
	}
	c, err := SweepRequest{Mixes: []MixSpec{{Kind: MixCaseStudy}}, Seed: 3, HopLatency: []float64{4, 5}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("extra axis value did not change the sweep hash")
	}
}

func TestSweepCellsExpansionOrder(t *testing.T) {
	req := SweepRequest{
		Mesh:       []MeshSize{{4, 4}, {6, 6}},
		HopLatency: []float64{2, 4},
		Mixes:      []MixSpec{{Kind: MixRandom, Seed: 1, N: 4}, {Kind: MixCaseStudy}},
		Schemes:    []string{"S-NUCA", "CDCS"},
		Seed:       9,
	}
	cells, err := req.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("%d cells, want 8", len(cells))
	}
	// Mix is the innermost axis, mesh the outermost.
	if cells[0].Request.Mix.Kind != MixRandom || cells[1].Request.Mix.Kind != MixCaseStudy {
		t.Error("mix is not the innermost axis")
	}
	if cells[0].Request.Config.MeshWidth != 4 || cells[7].Request.Config.MeshWidth != 6 {
		t.Error("mesh is not the outermost axis")
	}
	if cells[0].Request.Config.HopLatency != 2 || cells[2].Request.Config.HopLatency != 4 {
		t.Error("hop latency axis out of order")
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Request.Seed != 9 {
			t.Errorf("cell %d seed %d, want 9", i, c.Request.Seed)
		}
		if seen[c.Hash] {
			t.Errorf("duplicate cell hash %s", c.Hash)
		}
		seen[c.Hash] = true
	}
}

func TestSweepCellsMatchStandaloneCompare(t *testing.T) {
	// The acceptance gate: every sweep cell's result must be byte-identical
	// to the equivalent standalone Compare call — over a 3-axis grid that
	// includes a 32×32 (1024-tile, pruned-placement) cell.
	req := SweepRequest{
		Mesh:       []MeshSize{{8, 8}, {32, 32}},
		BankKB:     []int{256, 512},
		HopLatency: []float64{4, 6},
		Mixes:      []MixSpec{{Kind: MixRandom, Seed: 11, N: 16}},
		Schemes:    []string{"S-NUCA", "CDCS"},
		Seed:       5,
	}
	res, err := SweepWithOptions(req, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(res.Cells))
	}
	saw1024 := false
	for _, cell := range res.Cells {
		cfg := cell.Request.Config
		if cfg.MeshWidth == 32 {
			saw1024 = true
		}
		standalone, err := cell.Request.Run(RunOptions{})
		if err != nil {
			t.Fatalf("cell %d standalone: %v", cell.Index, err)
		}
		got, _ := json.Marshal(cell.Comparison)
		want, _ := json.Marshal(standalone)
		if string(got) != string(want) {
			t.Errorf("cell %d (%dx%d bank %dKB hop %g) diverged from standalone Compare",
				cell.Index, cfg.MeshWidth, cfg.MeshHeight, cfg.BankKB, cfg.HopLatency)
		}
	}
	if !saw1024 {
		t.Error("grid never reached the 32x32 cell")
	}
	// And against the direct library path, for one cell.
	cell := res.Cells[0]
	sys, err := NewSystem(*cell.Request.Config)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := cell.Request.Mix.Build()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Compare(mix, cell.Request.Seed, SNUCA, CDCS)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(cell.Comparison)
	want, _ := json.Marshal(direct)
	if string(got) != string(want) {
		t.Error("sweep cell diverged from direct System.Compare")
	}
}

func TestSweep64x64Cell(t *testing.T) {
	// The kilo-tile frontier: a 64×64 (4096-tile, stride-4 lattice) cell
	// must run under the raised MaxSweepTiles cap and stay byte-identical
	// to the standalone Compare path.
	if testing.Short() {
		t.Skip("64x64 sweep cell is slow")
	}
	req := SweepRequest{
		Mesh:    []MeshSize{{64, 64}},
		Mixes:   []MixSpec{{Kind: MixRandom, Seed: 13, N: 64}},
		Schemes: []string{"S-NUCA", "CDCS"},
		Seed:    5,
	}
	res, err := SweepWithOptions(req, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if cell.Request.Config.MeshWidth != 64 || cell.Request.Config.MeshHeight != 64 {
		t.Fatalf("cell is %dx%d, want 64x64", cell.Request.Config.MeshWidth, cell.Request.Config.MeshHeight)
	}
	standalone, err := cell.Request.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(cell.Comparison)
	want, _ := json.Marshal(standalone)
	if string(got) != string(want) {
		t.Error("64x64 cell diverged from standalone Compare")
	}
	ws := cell.Comparison.WeightedSpeedup["CDCS"]
	if ws <= 0 {
		t.Errorf("CDCS weighted speedup %g on the 64x64 cell", ws)
	}
}

func TestSweep128x128Cell(t *testing.T) {
	// The hierarchical frontier: a 128×128 (16,384-tile) cell runs the
	// two-level placement path, and must stay
	// byte-identical to the standalone Compare path.
	if testing.Short() {
		t.Skip("128x128 sweep cell is slow")
	}
	req := SweepRequest{
		Mesh:    []MeshSize{{128, 128}},
		Mixes:   []MixSpec{{Kind: MixRandom, Seed: 13, N: 128}},
		Schemes: []string{"S-NUCA", "CDCS"},
		Seed:    5,
	}
	res, err := SweepWithOptions(req, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if cell.Request.Config.MeshWidth != 128 || cell.Request.Config.MeshHeight != 128 {
		t.Fatalf("cell is %dx%d, want 128x128", cell.Request.Config.MeshWidth, cell.Request.Config.MeshHeight)
	}
	standalone, err := cell.Request.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(cell.Comparison)
	want, _ := json.Marshal(standalone)
	if string(got) != string(want) {
		t.Error("128x128 cell diverged from standalone Compare")
	}
	ws := cell.Comparison.WeightedSpeedup["CDCS"]
	if ws <= 0 {
		t.Errorf("CDCS weighted speedup %g on the 128x128 cell", ws)
	}
}

// TestSweepTileCapBoundary pins the mesh cap at exactly MaxSweepTiles: a
// 128×128 mesh (16,384 tiles, = the cap) passes validation and a
// 5×3277 mesh (16,385 tiles, one over) fails with a message carrying the
// cap (derived from the constant, not hard-coded text).
func TestSweepTileCapBoundary(t *testing.T) {
	mixes := []MixSpec{{Kind: MixRandom, Seed: 1, N: 4}}
	if _, err := (SweepRequest{Mesh: []MeshSize{{128, 128}}, Mixes: mixes}).Canonical(); err != nil {
		t.Fatalf("128x128 (= MaxSweepTiles) rejected: %v", err)
	}
	if 5*3277 != MaxSweepTiles+1 {
		t.Fatalf("boundary mesh is stale: 5*3277 != MaxSweepTiles+1 = %d", MaxSweepTiles+1)
	}
	_, err := (SweepRequest{Mesh: []MeshSize{{5, 3277}}, Mixes: mixes}).Canonical()
	if err == nil {
		t.Fatal("5x3277 (= MaxSweepTiles+1) accepted")
	}
	if want := fmt.Sprintf("%d tiles", MaxSweepTiles); !strings.Contains(err.Error(), want) {
		t.Errorf("cap error %q does not carry the derived limit %q", err, want)
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	req := SweepRequest{
		Mesh:    []MeshSize{{4, 4}, {6, 6}},
		Mixes:   []MixSpec{{Kind: MixRandom, Seed: 2, N: 8}},
		Schemes: []string{"S-NUCA", "CDCS"},
		Seed:    1,
	}
	seq, err := SweepWithOptions(req, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepWithOptions(req, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("sweep results differ across parallelism")
	}
}

func TestSweepProgressAndCancel(t *testing.T) {
	req := SweepRequest{
		Mesh:    []MeshSize{{4, 4}},
		Mixes:   []MixSpec{{Kind: MixRandom, Seed: 1, N: 4}, {Kind: MixRandom, Seed: 2, N: 4}},
		Schemes: []string{"S-NUCA"},
	}
	var last, total int
	if _, err := SweepWithOptions(req, RunOptions{
		Progress: func(d, n int) { last, total = d, n },
	}); err != nil {
		t.Fatal(err)
	}
	if total != 2 || last != total {
		t.Errorf("progress ended at %d/%d, want 2/2", last, total)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepWithOptions(req, RunOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep: err=%v", err)
	}
}
