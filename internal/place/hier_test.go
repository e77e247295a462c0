package place

import (
	"math"
	"sync"
	"testing"

	"cdcs/internal/mesh"
)

// TestHierarchicalThreshold pins the dispatch boundary: 64×64 (= the
// threshold) stays on the flat pipeline — the regime the golden corpus
// covers — and anything larger goes hierarchical.
func TestHierarchicalThreshold(t *testing.T) {
	if Hierarchical(Chip{Topo: mesh.New(64, 64), BankLines: 8192}) {
		t.Error("64x64 (= HierarchyThreshold) dispatched hierarchical; must stay flat")
	}
	if !Hierarchical(Chip{Topo: mesh.New(65, 64), BankLines: 8192}) {
		t.Error("65x64 (> HierarchyThreshold) dispatched flat; expected hierarchical")
	}
}

// hierAssignEqual compares two assignments value-for-value (bitwise).
func hierAssignEqual(t *testing.T, name string, banks int, a, b Assignment) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d VCs", name, len(a), len(b))
	}
	for v := range a {
		for bk := 0; bk < banks; bk++ {
			x, y := a[v].Get(mesh.Tile(bk)), b[v].Get(mesh.Tile(bk))
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: VC %d bank %d: %v vs %v", name, v, bk, x, y)
			}
		}
	}
}

// TestHierMatchesFlatOnUnitClusters runs the hierarchical pipeline on a mesh
// whose default cluster view is the identity partition (16×16 = 256 tiles =
// DefaultMaxClusters, so every cluster is one tile). There the coarse mesh IS
// the fine mesh and every interior subproblem is a single bank, so each
// hierarchical stage must reproduce its flat counterpart bit-for-bit — the
// strongest form of the "provably inert at small scale" contract, exercised
// through the hierarchical code rather than around it.
func TestHierMatchesFlatOnUnitClusters(t *testing.T) {
	chip, demands, _ := pipelineInstance(16, 16)
	n := chip.Banks()

	fOpt := OptimisticPlaceIn(NewArena(), chip, demands)
	hOpt := HierOptimisticPlaceIn(nil, chip, demands)
	for v := range demands {
		if fOpt.Center[v] != hOpt.Center[v] {
			t.Fatalf("VC %d: center %d vs %d", v, fOpt.Center[v], hOpt.Center[v])
		}
		if fOpt.CoM[v] != hOpt.CoM[v] {
			t.Fatalf("VC %d: CoM %v vs %v", v, fOpt.CoM[v], hOpt.CoM[v])
		}
	}
	hierAssignEqual(t, "claims", n, fOpt.Claims, hOpt.Claims)

	fThreads := PlaceThreadsIn(NewArena(), chip, demands, fOpt, n)
	hThreads := HierPlaceThreadsIn(nil, chip, demands, hOpt, n)
	for i := range fThreads {
		if fThreads[i] != hThreads[i] {
			t.Fatalf("thread %d: core %d vs %d", i, fThreads[i], hThreads[i])
		}
	}

	chunk := chip.BankLines / 8
	fAssign := GreedyIn(NewArena(), chip, demands, fThreads, chunk)
	fTrades, fDelta := RefineIn(NewArena(), chip, demands, fAssign, fThreads)
	hAssign, hTrades, hDelta := HierGreedyRefineIn(nil, chip, demands, hThreads, chunk, true)
	hierAssignEqual(t, "assignment", n, fAssign, hAssign)
	if fTrades != hTrades || math.Float64bits(fDelta) != math.Float64bits(hDelta) {
		t.Fatalf("trades/delta: flat (%d, %v) vs hier (%d, %v)", fTrades, fDelta, hTrades, hDelta)
	}
}

// TestHierBoundedGap forces the hierarchical path onto a mesh the flat
// pipeline still handles (32×32: clusters of side 2) and bounds the on-chip
// latency it gives up for the two-level approximation. The hierarchical
// result must also be a valid placement under real capacities.
func TestHierBoundedGap(t *testing.T) {
	chip, demands, _ := pipelineInstance(32, 32)
	n := chip.Banks()
	chunk := chip.BankLines / 8

	fOpt := OptimisticPlaceIn(NewArena(), chip, demands)
	fThreads := PlaceThreadsIn(NewArena(), chip, demands, fOpt, n)
	fAssign := GreedyIn(NewArena(), chip, demands, fThreads, chunk)
	RefineIn(NewArena(), chip, demands, fAssign, fThreads)
	flat := OnChipLatency(chip, demands, fAssign, fThreads)

	hOpt := HierOptimisticPlaceIn(NewArena(), chip, demands)
	hThreads := HierPlaceThreadsIn(NewArena(), chip, demands, hOpt, n)
	hAssign, _, delta := HierGreedyRefineIn(NewArena(), chip, demands, hThreads, chunk, true)
	if err := hAssign.Validate(chip, demands, 1e-6); err != nil {
		t.Fatalf("hierarchical assignment invalid: %v", err)
	}
	if delta > 1e-9 {
		t.Fatalf("refine increased latency: delta=%v", delta)
	}
	hier := OnChipLatency(chip, demands, hAssign, hThreads)
	if hier > 1.5*flat {
		t.Fatalf("hierarchical on-chip latency %.4g vs flat %.4g: gap above 50%%", hier, flat)
	}
	t.Logf("on-chip latency: flat %.4g, hier %.4g (%.2fx)", flat, hier, hier/flat)
}

// TestHierWorkerDeterminism proves the interior-refinement fan-out's
// deterministic-merge contract: the assignment, trade count, and latency
// delta are bitwise identical for any worker count, and on a warm reused
// arena the same as on a nil one.
func TestHierWorkerDeterminism(t *testing.T) {
	w, h := 48, 48
	if testing.Short() {
		w, h = 24, 24
	}
	chip, demands, _ := pipelineInstance(w, h)
	n := chip.Banks()
	chunk := chip.BankLines / 8
	opt := HierOptimisticPlaceIn(NewArena(), chip, demands)
	threads := HierPlaceThreadsIn(NewArena(), chip, demands, opt, n)

	defer func() { hierWorkers = 0 }()
	hierWorkers = 1
	a1, t1, d1 := HierGreedyRefineIn(nil, chip, demands, threads, chunk, true)
	ref := a1.Clone()
	ar := NewArena()
	for _, nw := range []int{2, 8, 1} {
		hierWorkers = nw
		an, tn, dn := HierGreedyRefineIn(ar, chip, demands, threads, chunk, true)
		hierAssignEqual(t, "workers", n, ref, an)
		if tn != t1 || math.Float64bits(dn) != math.Float64bits(d1) {
			t.Fatalf("workers=%d: trades/delta (%d, %v) vs (%d, %v)", nw, tn, dn, t1, d1)
		}
	}
}

// TestHierConcurrentCallsShareThePool: calls on separate arenas at once
// share one level-2 pool, and with more shares than the pool has queue
// room for (eight per call here), callers run the overflow themselves.
// Every call's placement still matches a lone single-worker call.
func TestHierConcurrentCallsShareThePool(t *testing.T) {
	chip, demands, _ := pipelineInstance(24, 24)
	n := chip.Banks()
	chunk := chip.BankLines / 8
	opt := HierOptimisticPlaceIn(NewArena(), chip, demands)
	threads := HierPlaceThreadsIn(NewArena(), chip, demands, opt, n)
	defer func() { hierWorkers = 0 }()
	hierWorkers = 1
	a1, t1, d1 := HierGreedyRefineIn(nil, chip, demands, threads, chunk, true)
	ref := a1.Clone()
	hierWorkers = 8
	const callers = 6
	got := make([]Assignment, callers)
	trades := make([]int, callers)
	deltas := make([]float64, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := NewArena()
			for range 3 {
				a, tr, dl := HierGreedyRefineIn(ar, chip, demands, threads, chunk, true)
				got[i], trades[i], deltas[i] = a.Clone(), tr, dl
			}
		}()
	}
	wg.Wait()
	for i := range callers {
		hierAssignEqual(t, "concurrent", n, ref, got[i])
		if trades[i] != t1 || math.Float64bits(deltas[i]) != math.Float64bits(d1) {
			t.Fatalf("caller %d: trades/delta (%d, %v) vs (%d, %v)", i, trades[i], deltas[i], t1, d1)
		}
	}
}

// TestHierPipelineAtScale runs the full hierarchical pipeline on a genuinely
// above-threshold chip and checks the result is a valid
// placement with all capacity placed. This is the 128×128 frontier the flat
// pipeline cannot reach (its distance matrix alone would need ~2 GB).
func TestHierPipelineAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 96x96 pipeline in -short mode")
	}
	chip, demands, _ := pipelineInstance(96, 96)
	if !Hierarchical(chip) {
		t.Fatal("96x96 should be hierarchical")
	}
	n := chip.Banks()
	opt := HierOptimisticPlaceIn(NewArena(), chip, demands)
	threads := HierPlaceThreadsIn(NewArena(), chip, demands, opt, n)
	seen := make([]bool, n)
	for _, c := range threads {
		if seen[c] {
			t.Fatalf("core %d assigned twice", c)
		}
		seen[c] = true
	}
	assign, _, delta := HierGreedyRefineIn(NewArena(), chip, demands, threads, chip.BankLines/8, true)
	if err := assign.Validate(chip, demands, 1e-6); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	if delta > 1e-9 {
		t.Fatalf("refine increased latency: delta=%v", delta)
	}
}

// TestHierFanOutAllocatesNothing: on a warm arena the hierarchical pass's
// level-2 fan-out allocates nothing per call. A fixed pool takes the
// shares it has room for and the calling goroutine runs the rest, so no
// call starts a goroutine or builds a closure. (The runtime may, rarely, refill its cache of wait
// records when a goroutine blocks; averaged over the runs, that is far
// below one allocation per call.)
func TestHierFanOutAllocatesNothing(t *testing.T) {
	chip, demands, _ := pipelineInstance(24, 24)
	opt := HierOptimisticPlaceIn(NewArena(), chip, demands)
	threads := HierPlaceThreadsIn(NewArena(), chip, demands, opt, chip.Banks())
	defer func() { hierWorkers = 0 }()
	hierWorkers = 4
	ar := NewArena()
	HierGreedyRefineIn(ar, chip, demands, threads, chip.BankLines/8, true)
	if n := testing.AllocsPerRun(50, func() {
		HierGreedyRefineIn(ar, chip, demands, threads, chip.BankLines/8, true)
	}); n != 0 {
		t.Fatalf("HierGreedyRefineIn on a warm arena: %v allocations per call, want 0", n)
	}
}
