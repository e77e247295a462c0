package place

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cdcs/internal/mesh"
)

// chip36 returns a 6x6 chip with 8192-line banks (the §II-B case study CMP).
func chip36() Chip {
	return Chip{Topo: mesh.New(6, 6), BankLines: 8192}
}

// chip64 returns the 8x8 evaluation chip.
func chip64() Chip {
	return Chip{Topo: mesh.New(8, 8), BankLines: 8192}
}

// NewDemand builds a Demand from an accessor-rate map, listing the accessors
// in ascending thread-id order as Demand requires.
func NewDemand(size float64, accessors map[int]float64) Demand {
	ths := make([]int, 0, len(accessors))
	for t := range accessors {
		ths = append(ths, t)
	}
	sort.Ints(ths)
	rates := make([]float64, len(ths))
	for i, t := range ths {
		rates[i] = accessors[t]
	}
	return Demand{Size: size, Threads: ths, Rates: rates}
}

// singleThreadDemands builds n VCs, each with one accessor thread i and the
// given sizes/rates.
func singleThreadDemands(sizes, rates []float64) []Demand {
	out := make([]Demand, len(sizes))
	for i := range sizes {
		out[i] = NewDemand(sizes[i], map[int]float64{i: rates[i]})
	}
	return out
}

// assignmentOf builds an Assignment from per-VC bank→lines maps (test
// convenience mirroring the old map literals).
func assignmentOf(vcs ...map[mesh.Tile]float64) Assignment {
	a := NewAssignment(len(vcs))
	for v, m := range vcs {
		for b, lines := range m {
			a[v].Set(b, lines)
		}
	}
	return a
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(2)
	a[0].Add(3, 100)
	a[0].Add(4, 50)
	a[1].Add(3, 25)
	if got := a.Placed(0); got != 150 {
		t.Errorf("Placed(0)=%g", got)
	}
	use := a.BankUsageInto(make([]float64, 8))
	if use[3] != 125 || use[4] != 50 {
		t.Errorf("BankUsageInto=%v", use)
	}
	c := a.Clone()
	c[0].Set(3, 1)
	if a[0].Get(3) != 100 {
		t.Error("Clone is shallow")
	}
}

func TestBankAllocIndexSorted(t *testing.T) {
	var a BankAlloc
	for _, b := range []mesh.Tile{9, 2, 14, 2, 0, 7} {
		a.Add(b, 1)
	}
	want := []mesh.Tile{0, 2, 7, 9, 14}
	got := a.Banks()
	if len(got) != len(want) {
		t.Fatalf("Banks()=%v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Banks()=%v, want %v", got, want)
		}
	}
	if a.Get(2) != 2 {
		t.Errorf("Get(2)=%g, want 2 (two Adds)", a.Get(2))
	}
	// Driving an entry to zero keeps it in the index (map-key semantics).
	a.Add(7, -1)
	if a.Get(7) != 0 || a.Len() != 5 {
		t.Errorf("zeroed entry dropped: Get(7)=%g Len=%d", a.Get(7), a.Len())
	}
}

func TestAssignmentValidate(t *testing.T) {
	chip := chip36()
	d := singleThreadDemands([]float64{100}, []float64{10})
	a := NewAssignment(1)
	a[0].Set(0, 100)
	if err := a.Validate(chip, d, 1); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	// Over-capacity bank.
	b := NewAssignment(1)
	b[0].Set(0, chip.BankLines+100)
	db := singleThreadDemands([]float64{chip.BankLines + 100}, []float64{10})
	if err := b.Validate(chip, db, 1); err == nil {
		t.Error("over-capacity assignment accepted")
	}
	// Wrong size.
	cAssign := NewAssignment(1)
	cAssign[0].Set(0, 50)
	if err := cAssign.Validate(chip, d, 1); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestVCDistances(t *testing.T) {
	chip := chip36()
	d := []Demand{
		NewDemand(100, map[int]float64{0: 10}),
		NewDemand(100, map[int]float64{0: 10, 1: 10}),
		NewDemand(100, map[int]float64{}), // no accessors
	}
	threads := []mesh.Tile{0, 5} // corners of the top row
	dist := VCDistancesIn(nil, chip, d, threads)
	// VC 0: distance from tile 0.
	if dist[0][0] != 0 || dist[0][5] != 5 {
		t.Errorf("VC0 distances wrong: %v, %v", dist[0][0], dist[0][5])
	}
	// VC 1: equal-weight mean of both threads.
	want := (float64(chip.Topo.Distance(0, 2)) + float64(chip.Topo.Distance(5, 2))) / 2
	if !approxEq(dist[1][2], want, 1e-9) {
		t.Errorf("VC1 distance at bank 2 = %g, want %g", dist[1][2], want)
	}
	// VC 2: measured from chip center.
	c := chip.Topo.CenterTile()
	if dist[2][int(c)] != 0 {
		t.Errorf("accessorless VC not centered")
	}
}

func TestOnChipLatencyHandComputed(t *testing.T) {
	chip := chip36()
	// One VC split 75/25 across banks 0 and 5, accessed by thread 0 at tile 0
	// with rate 10: latency = 10×(0.75×0 + 0.25×5) = 12.5 access-hops.
	d := []Demand{NewDemand(100, map[int]float64{0: 10})}
	a := NewAssignment(1)
	a[0].Set(0, 75)
	a[0].Set(5, 25)
	got := OnChipLatency(chip, d, a, []mesh.Tile{0})
	if !approxEq(got, 12.5, 1e-9) {
		t.Errorf("OnChipLatency=%g, want 12.5", got)
	}
}

func TestOptimisticPlaceSingleVC(t *testing.T) {
	chip := chip36()
	d := singleThreadDemands([]float64{3 * 8192}, []float64{50})
	opt := OptimisticPlaceIn(nil, chip, d)
	// A lone VC should sit at the chip center (least contention, central
	// tie-break) and claim 3 banks compactly.
	if opt.Center[0] != chip.Topo.CenterTile() {
		t.Errorf("center=%d, want chip center %d", opt.Center[0], chip.Topo.CenterTile())
	}
	if got := opt.Claims.Placed(0); !approxEq(got, 3*8192, 1e-6) {
		t.Errorf("claimed %g lines", got)
	}
	for _, b := range opt.Claims[0].Banks() {
		lines := opt.Claims[0].Get(b)
		if lines > chip.BankLines+1e-9 {
			t.Errorf("bank %d claim %g exceeds bank size", b, lines)
		}
		if chip.Topo.Distance(opt.Center[0], b) > 1 {
			t.Errorf("claim in bank %d is %d hops from center", b, chip.Topo.Distance(opt.Center[0], b))
		}
	}
}

func TestOptimisticPlaceSpreadsLargeVCs(t *testing.T) {
	// Six omnet-like 5-bank VCs on a 36-tile chip: centers must not collide
	// — the whole point of contention-aware placement (vs Fig. 1b).
	chip := chip36()
	sizes := make([]float64, 6)
	rates := make([]float64, 6)
	for i := range sizes {
		sizes[i] = 5 * 8192
		rates[i] = 90
	}
	opt := OptimisticPlaceIn(nil, chip, singleThreadDemands(sizes, rates))
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if opt.Center[i] == opt.Center[j] {
				t.Errorf("VCs %d and %d share center %d", i, j, opt.Center[i])
			}
		}
	}
	// Pairwise center distance should be meaningful (spread over the chip).
	minD := 100
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if d := chip.Topo.Distance(opt.Center[i], opt.Center[j]); d < minD {
				minD = d
			}
		}
	}
	if minD < 2 {
		t.Errorf("min center distance %d, want >=2 (contention avoidance)", minD)
	}
}

func TestOptimisticPlaceSmallVCsAfterLarge(t *testing.T) {
	chip := chip36()
	// One big VC and many tiny ones: big goes first (center), tiny ones fill
	// least-contended spots; everything gets placed.
	sizes := []float64{10 * 8192, 100, 100, 100}
	rates := []float64{50, 5, 5, 5}
	opt := OptimisticPlaceIn(nil, chip, singleThreadDemands(sizes, rates))
	for v := range sizes {
		if got := opt.Claims.Placed(v); !approxEq(got, sizes[v], 1e-6) {
			t.Errorf("VC %d claimed %g, want %g", v, got, sizes[v])
		}
	}
}

func TestOptimisticZeroSizeVC(t *testing.T) {
	chip := chip36()
	opt := OptimisticPlaceIn(nil, chip, singleThreadDemands([]float64{0}, []float64{10}))
	if got := opt.Claims.Placed(0); got != 0 {
		t.Errorf("zero-size VC claimed %g", got)
	}
	if opt.Center[0] != chip.Topo.CenterTile() {
		t.Error("zero-size VC center not defaulted")
	}
}

func TestPlaceThreadsNearData(t *testing.T) {
	chip := chip36()
	// Two threads, VC data pinned at opposite corners: each thread lands on
	// its data's corner.
	d := []Demand{
		NewDemand(8192, map[int]float64{0: 50}),
		NewDemand(8192, map[int]float64{1: 50}),
	}
	opt := Optimistic{
		Center: []mesh.Tile{0, 35},
		Claims: assignmentOf(map[mesh.Tile]float64{0: 8192}, map[mesh.Tile]float64{35: 8192}),
		CoM:    []Point{{0, 0}, {5, 5}},
	}
	cores := PlaceThreadsIn(nil, chip, d, opt, 2)
	if cores[0] != 0 {
		t.Errorf("thread 0 at %d, want 0", cores[0])
	}
	if cores[1] != 35 {
		t.Errorf("thread 1 at %d, want 35", cores[1])
	}
}

func TestPlaceThreadsDistinctCores(t *testing.T) {
	chip := chip64()
	n := 64
	sizes := make([]float64, n)
	rates := make([]float64, n)
	for i := range sizes {
		sizes[i] = 4096
		rates[i] = 20
	}
	d := singleThreadDemands(sizes, rates)
	opt := OptimisticPlaceIn(nil, chip, d)
	cores := PlaceThreadsIn(nil, chip, d, opt, n)
	seen := map[mesh.Tile]bool{}
	for t2, c := range cores {
		if seen[c] {
			t.Fatalf("core %d assigned twice (thread %d)", c, t2)
		}
		seen[c] = true
	}
}

func TestPlaceThreadsPriorityOrder(t *testing.T) {
	chip := chip36()
	// Both threads want the same spot; the one with higher intensity×capacity
	// gets it.
	d := []Demand{
		NewDemand(4*8192, map[int]float64{0: 90}), // heavy
		NewDemand(1024, map[int]float64{1: 5}),    // light
	}
	com := Point{2, 2}
	opt := Optimistic{
		Center: []mesh.Tile{chip.Topo.TileAt(2, 2), chip.Topo.TileAt(2, 2)},
		Claims: assignmentOf(
			map[mesh.Tile]float64{chip.Topo.TileAt(2, 2): 4 * 8192},
			map[mesh.Tile]float64{chip.Topo.TileAt(2, 2): 1024}),
		CoM: []Point{com, com},
	}
	cores := PlaceThreadsIn(nil, chip, d, opt, 2)
	if cores[0] != chip.Topo.TileAt(2, 2) {
		t.Errorf("heavy thread at %d, want the contended tile", cores[0])
	}
	if cores[1] == cores[0] {
		t.Error("threads share a core")
	}
}

func TestClusteredAndRandomThreads(t *testing.T) {
	chip := chip36()
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(36)
	r1 := RandomThreads(chip, 10, perm)
	seen := map[mesh.Tile]bool{}
	for _, c := range r1 {
		if seen[c] {
			t.Fatal("random placement reused a core")
		}
		seen[c] = true
	}
}

func TestGreedyRespectsCapacityAndPlacesAll(t *testing.T) {
	chip := chip36()
	rng := rand.New(rand.NewSource(17))
	n := 12
	sizes := make([]float64, n)
	rates := make([]float64, n)
	total := 0.0
	for i := range sizes {
		sizes[i] = float64(rng.Intn(4*8192) + 512)
		rates[i] = rng.Float64()*80 + 5
		total += sizes[i]
	}
	if total > chip.TotalLines() {
		t.Fatal("test demand exceeds chip capacity; adjust generator")
	}
	d := singleThreadDemands(sizes, rates)
	threads := make([]mesh.Tile, n)
	for i := range threads {
		threads[i] = mesh.Tile(i)
	}
	a := GreedyIn(nil, chip, d, threads, 512)
	if err := a.Validate(chip, d, 1); err != nil {
		t.Fatalf("greedy assignment invalid: %v", err)
	}
}

func TestGreedyPrefersLocalBank(t *testing.T) {
	chip := chip36()
	// A small VC accessed by a thread at tile 7 should land entirely in
	// bank 7 when the chip is otherwise empty.
	d := []Demand{NewDemand(2048, map[int]float64{0: 50})}
	a := GreedyIn(nil, chip, d, []mesh.Tile{7}, 512)
	if got := a[0].Get(7); !approxEq(got, 2048, 1e-9) {
		t.Errorf("local bank got %g of 2048 lines in banks %v", got, a[0].Banks())
	}
}

func TestGreedyContentionPushesDataOut(t *testing.T) {
	chip := chip36()
	// Two adjacent threads each demanding 3 banks: their data cannot all be
	// local; total placed must still match and capacity hold.
	d := []Demand{
		NewDemand(3*8192, map[int]float64{0: 90}),
		NewDemand(3*8192, map[int]float64{1: 90}),
	}
	threads := []mesh.Tile{0, 1}
	a := GreedyIn(nil, chip, d, threads, 512)
	if err := a.Validate(chip, d, 1); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestRefineNeverIncreasesLatency(t *testing.T) {
	chip := chip64()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(16)
		sizes := make([]float64, n)
		rates := make([]float64, n)
		for i := range sizes {
			sizes[i] = float64(rng.Intn(3*8192) + 256)
			rates[i] = rng.Float64()*80 + 5
		}
		d := singleThreadDemands(sizes, rates)
		perm := rng.Perm(64)
		threads := RandomThreads(chip, n, perm)
		a := GreedyIn(nil, chip, d, threads, 512)
		before := OnChipLatency(chip, d, a, threads)
		trades, delta := RefineIn(nil, chip, d, a, threads)
		after := OnChipLatency(chip, d, a, threads)
		if after > before+1e-6 {
			t.Fatalf("trial %d: refine increased latency %g -> %g", trial, before, after)
		}
		if !approxEq(after-before, delta, 1e-6*math.Max(1, before)) {
			t.Fatalf("trial %d: reported delta %g, actual %g", trial, delta, after-before)
		}
		if err := a.Validate(chip, d, 1); err != nil {
			t.Fatalf("trial %d: refined assignment invalid: %v", trial, err)
		}
		_ = trades
	}
}

func TestRefineFindsObviousTrade(t *testing.T) {
	chip := chip36()
	// VC 0 (hot) has data far away; VC 1 (cold) sits next to thread 0.
	// Refinement should swap them.
	d := []Demand{
		NewDemand(8192, map[int]float64{0: 100}),
		NewDemand(8192, map[int]float64{1: 1}),
	}
	threads := []mesh.Tile{0, 35}
	a := NewAssignment(2)
	a[0].Set(35, 8192) // hot VC's data in the far corner
	a[1].Set(0, 8192)  // cold VC's data next to the hot thread
	before := OnChipLatency(chip, d, a, threads)
	trades, _ := RefineIn(nil, chip, d, a, threads)
	after := OnChipLatency(chip, d, a, threads)
	if trades == 0 {
		t.Fatal("no trades executed")
	}
	if after >= before {
		t.Errorf("latency did not improve: %g -> %g", before, after)
	}
	// Hot VC should now be local.
	if a[0].Get(0) < 8192-1 {
		t.Errorf("hot VC not moved local: banks %v", a[0].Banks())
	}
}

func TestRefineUsesFreeSpace(t *testing.T) {
	chip := chip36()
	// Hot VC far away, near bank empty: move without counterparty.
	d := []Demand{NewDemand(4096, map[int]float64{0: 100})}
	threads := []mesh.Tile{0}
	a := NewAssignment(1)
	a[0].Set(35, 4096)
	trades, delta := RefineIn(nil, chip, d, a, threads)
	if trades == 0 || delta >= 0 {
		t.Fatalf("free-space move not taken: trades=%d delta=%g", trades, delta)
	}
	if a[0].Get(0) < 4096-1 {
		t.Errorf("data not moved to local bank: banks %v", a[0].Banks())
	}
}

func TestOptimalTransportBeatsOrMatchesGreedy(t *testing.T) {
	chip := chip64()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		n := 16
		sizes := make([]float64, n)
		rates := make([]float64, n)
		for i := range sizes {
			sizes[i] = float64((rng.Intn(6) + 1)) * 4096
			rates[i] = rng.Float64()*80 + 5
		}
		d := singleThreadDemands(sizes, rates)
		threads := RandomThreads(chip, n, rng.Perm(64))
		greedy := GreedyIn(nil, chip, d, threads, 512)
		RefineIn(nil, chip, d, greedy, threads)
		opt := OptimalTransport(chip, d, threads, 512)
		gl := OnChipLatency(chip, d, greedy, threads)
		ol := OnChipLatency(chip, d, opt, threads)
		if ol > gl+1e-6 {
			t.Fatalf("trial %d: optimal %g worse than greedy+refine %g", trial, ol, gl)
		}
		if err := opt.Validate(chip, d, 1); err != nil {
			t.Fatalf("trial %d: optimal assignment invalid: %v", trial, err)
		}
	}
}

func TestOptimalTransportExactOnTinyInstance(t *testing.T) {
	// 2x1 mesh, 2 VCs, hand-checkable: VC0 (hot, at tile 0) must get bank 0.
	chip := Chip{Topo: mesh.New(2, 1), BankLines: 100}
	d := []Demand{
		NewDemand(100, map[int]float64{0: 10}), // thread 0 at tile 0
		NewDemand(100, map[int]float64{1: 1}),  // thread 1 at tile 1... also wants bank 1
	}
	threads := []mesh.Tile{0, 1}
	a := OptimalTransport(chip, d, threads, 50)
	if a[0].Get(0) < 99 {
		t.Errorf("hot VC not fully local: banks %v", a[0].Banks())
	}
	if a[1].Get(1) < 99 {
		t.Errorf("second VC not local: banks %v", a[1].Banks())
	}
}

func TestAnnealThreadsImprovesBadPlacement(t *testing.T) {
	chip := chip36()
	// Data placed at corners, threads placed at the *opposite* corners.
	d := []Demand{
		NewDemand(8192, map[int]float64{0: 100}),
		NewDemand(8192, map[int]float64{1: 100}),
	}
	a := NewAssignment(2)
	a[0].Set(0, 8192)
	a[1].Set(35, 8192)
	threads := []mesh.Tile{35, 0} // deliberately swapped
	before := OnChipLatency(chip, d, a, threads)
	improved, cost := AnnealThreads(chip, d, a, threads, 3000, rand.New(rand.NewSource(7)))
	after := OnChipLatency(chip, d, a, improved)
	if after >= before {
		t.Errorf("annealing failed to improve: %g -> %g", before, after)
	}
	if !approxEq(cost, after, 1e-6) {
		t.Errorf("reported cost %g != recomputed %g", cost, after)
	}
	// The optimum swaps the threads back onto their data.
	if after > 1e-9 {
		t.Errorf("annealing missed the zero-latency optimum: %g", after)
	}
}

func TestGraphPartitionKeepsSharersTogether(t *testing.T) {
	chip := chip64()
	// Two 8-thread processes, each sharing one VC heavily. Partitioning
	// should keep co-sharers on the same half of the chip.
	d := []Demand{
		NewDemand(8192, map[int]float64{0: 10, 1: 10, 2: 10, 3: 10, 4: 10, 5: 10, 6: 10, 7: 10}),
		NewDemand(8192, map[int]float64{8: 10, 9: 10, 10: 10, 11: 10, 12: 10, 13: 10, 14: 10, 15: 10}),
	}
	cores := GraphPartition(chip, d, 16)
	seen := map[mesh.Tile]bool{}
	for _, c := range cores {
		if seen[c] {
			t.Fatal("graph partition reused a core")
		}
		seen[c] = true
	}
	spread := func(ts []int) int {
		max := 0
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if d := chip.Topo.Distance(cores[ts[i]], cores[ts[j]]); d > max {
					max = d
				}
			}
		}
		return max
	}
	g1 := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g2 := []int{8, 9, 10, 11, 12, 13, 14, 15}
	if s := spread(g1); s > 9 {
		t.Errorf("process 1 spread %d hops, want clustered", s)
	}
	if s := spread(g2); s > 9 {
		t.Errorf("process 2 spread %d hops, want clustered", s)
	}
}

func approxEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Set sets bank b's lines: the tests write the hand-made placements they
// start from with it.
func (a *BankAlloc) Set(b mesh.Tile, v float64) { a.vals[a.slot(b)] = v }
