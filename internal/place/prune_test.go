package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cdcs/internal/mesh"
)

// bestCenter picks the least-contended center for a VC of the given size on
// a fresh search, the way OptimisticPlaceIn runs one per VC.
func bestCenter(chip Chip, claimed []float64, size float64) mesh.Tile {
	var s centerSearch
	s.init(chip, claimed)
	best, _ := s.search(size)
	return best
}

func TestBestCenterExhaustiveAtOrBelowThreshold(t *testing.T) {
	// Every chip the paper evaluates (up to 16x16 = PruneThreshold banks)
	// must take the exhaustive path bit for bit.
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][2]int{{6, 6}, {8, 8}, {16, 16}} {
		chip := Chip{Topo: mesh.New(dims[0], dims[1]), BankLines: 8192}
		if chip.Banks() > PruneThreshold {
			t.Fatalf("%dx%d unexpectedly above threshold", dims[0], dims[1])
		}
		for trial := 0; trial < 50; trial++ {
			claimed := make([]float64, chip.Banks())
			for b := range claimed {
				claimed[b] = rng.Float64() * 2 * chip.BankLines
			}
			size := rng.Float64() * chip.TotalLines() / 4
			if got, want := bestCenter(chip, claimed, size), exhaustiveBestCenter(chip, claimed, size); got != want {
				t.Fatalf("%dx%d trial %d: bestCenter=%d, exhaustive=%d", dims[0], dims[1], trial, got, want)
			}
		}
	}
}

func TestBestCenterPrunedUncontendedIsChipCenter(t *testing.T) {
	// With no claims, every candidate ties at zero contention and the
	// distance tie-break must resolve to the chip center — on the pruned
	// path too (the lattice always includes the center).
	chip := Chip{Topo: mesh.New(32, 32), BankLines: 8192}
	if chip.Banks() <= PruneThreshold {
		t.Fatal("32x32 should be above threshold")
	}
	claimed := make([]float64, chip.Banks())
	if got := bestCenter(chip, claimed, 3*chip.BankLines); got != chip.Topo.CenterTile() {
		t.Errorf("uncontended pruned center=%d, want chip center %d", got, chip.Topo.CenterTile())
	}
}

func TestBestCenterPrunedNearOptimal(t *testing.T) {
	// The pruned search is a heuristic above threshold, but on smooth
	// contention surfaces it should land within a small factor of the
	// exhaustive optimum's contention — including in the stride-2 (32×32),
	// stride-3 (48×48) and stride-4 (64×64) lattice regimes.
	cases := []struct {
		w, h, trials int
	}{
		{32, 32, 10},
		{48, 48, 3},
		{64, 64, 3},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			chip := Chip{Topo: mesh.New(c.w, c.h), BankLines: 8192}
			for trial := 0; trial < c.trials; trial++ {
				claimed := make([]float64, chip.Banks())
				// A few hot regions of claimed capacity, decaying with distance.
				for hot := 0; hot < 4; hot++ {
					ct := mesh.Tile(rng.Intn(chip.Banks()))
					cur := chip.Topo.RingFrom(ct)
					for {
						b, ok := cur.Next()
						if !ok || cur.Dist() > 6 {
							break
						}
						claimed[b] += chip.BankLines / float64(1+cur.Dist())
					}
				}
				size := 5 * chip.BankLines
				pruned := bestCenter(chip, claimed, size)
				exact := exhaustiveBestCenter(chip, claimed, size)
				pc := footprintContention(chip, claimed, pruned, size)
				ec := footprintContention(chip, claimed, exact, size)
				if pc > ec+chip.BankLines {
					t.Errorf("trial %d: pruned contention %.0f far above exhaustive %.0f", trial, pc, ec)
				}
			}
		})
	}
}

func TestLatticeStride(t *testing.T) {
	cases := []struct {
		w, h, want int
	}{
		{8, 8, 1},   // 64 <= 256: no coarsening
		{16, 16, 1}, // exactly the threshold
		{32, 32, 2}, // 1024 -> 16x16 lattice
		{64, 64, 4},
		{100, 1, 1},
	}
	for _, c := range cases {
		if got := latticeStride(c.w, c.h); got != c.want {
			t.Errorf("latticeStride(%d,%d)=%d, want %d", c.w, c.h, got, c.want)
		}
		s := latticeStride(c.w, c.h)
		if pts := ((c.w + s - 1) / s) * ((c.h + s - 1) / s); pts > PruneThreshold {
			t.Errorf("latticeStride(%d,%d)=%d leaves %d lattice points", c.w, c.h, s, pts)
		}
	}
}

func TestOptimisticPlaceAboveThreshold(t *testing.T) {
	// Kilo-tile chips: placement must stay structurally sound (full claims,
	// compact footprints) and bit-deterministic across repeated runs — on
	// the stride-2 32x32 mesh and on a 33x31 mesh whose lattice coarsens to
	// stride 3 (where the re-scan radius must still cover whole cells).
	for _, dims := range [][2]int{{32, 32}, {33, 31}} {
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			testOptimisticPlaceAboveThreshold(t, dims[0], dims[1])
		})
	}
}

func testOptimisticPlaceAboveThreshold(t *testing.T, w, h int) {
	chip := Chip{Topo: mesh.New(w, h), BankLines: 8192}
	if chip.Banks() <= PruneThreshold {
		t.Fatalf("%dx%d not above threshold", w, h)
	}
	rng := rand.New(rand.NewSource(3))
	demands := make([]Demand, 64)
	for v := range demands {
		demands[v] = NewDemand(float64(1+rng.Intn(6))*chip.BankLines, map[int]float64{v: 10 + rng.Float64()*40})
	}
	opt := OptimisticPlaceIn(nil, chip, demands)
	for v, d := range demands {
		placed := opt.Claims.Placed(v)
		if !approxEq(placed, d.Size, 1e-6) {
			t.Errorf("VC %d claimed %g lines, want %g", v, placed, d.Size)
		}
		// Claims must be compact around the chosen center: within the radius
		// covering the footprint (ties can spill one ring).
		k := int(d.Size/chip.BankLines) + 1
		maxR := radiusCovering(chip.Topo, opt.Center[v], k) + 1
		for _, b := range opt.Claims[v].Banks() {
			if chip.Topo.Distance(opt.Center[v], b) > maxR {
				t.Errorf("VC %d claim in bank %d, %d hops from center (footprint radius %d)",
					v, b, chip.Topo.Distance(opt.Center[v], b), maxR)
			}
		}
	}
	again := OptimisticPlaceIn(nil, chip, demands)
	if !reflect.DeepEqual(opt, again) {
		t.Error("OptimisticPlaceIn not deterministic above threshold")
	}
}

func TestRefineAboveThreshold(t *testing.T) {
	// RefineIn on a 1024-tile chip: trades still only ever lower Eq. 2 latency
	// and the assignment stays valid (the spiral is data-bounded, not
	// candidate-pruned — see the comment in RefineIn).
	chip := Chip{Topo: mesh.New(32, 32), BankLines: 8192}
	rng := rand.New(rand.NewSource(9))
	demands := make([]Demand, 32)
	threadCore := make([]mesh.Tile, 32)
	for v := range demands {
		demands[v] = NewDemand(float64(1+rng.Intn(4))*chip.BankLines, map[int]float64{v: 20})
		threadCore[v] = mesh.Tile(rng.Intn(chip.Banks()))
	}
	assign := GreedyIn(nil, chip, demands, threadCore, 0)
	if err := assign.Validate(chip, demands, 1e-6); err != nil {
		t.Fatalf("greedy assignment invalid: %v", err)
	}
	before := OnChipLatency(chip, demands, assign, threadCore)
	trades, delta := RefineIn(nil, chip, demands, assign, threadCore)
	if delta > 1e-9 {
		t.Errorf("refine increased latency: delta=%g over %d trades", delta, trades)
	}
	if err := assign.Validate(chip, demands, 1e-6); err != nil {
		t.Errorf("refined assignment invalid: %v", err)
	}
	after := OnChipLatency(chip, demands, assign, threadCore)
	if after > before+1e-6 {
		t.Errorf("Eq.2 latency rose from %g to %g", before, after)
	}
}

// radiusCovering returns the smallest radius r such that at least k tiles lie
// within distance r of center: the distance of the k-th tile in ring order.
func radiusCovering(topo *mesh.Topology, center mesh.Tile, k int) int {
	cur := topo.RingFrom(center)
	r := 0
	for i := 0; i < k; i++ {
		if _, ok := cur.Next(); !ok {
			break
		}
		r = cur.Dist()
	}
	return r
}

// oracleCaps returns the bank capacities of one oracle case: nil (every bank
// holds BankLines), uniform but explicit (as on a coarse chip whose clusters
// all have the same size), or ragged.
func oracleCaps(rng *rand.Rand, mode, n int, bankLines float64) []float64 {
	switch mode {
	case 0:
		return nil
	case 1:
		caps := make([]float64, n)
		k := float64(1 + rng.Intn(25))
		for b := range caps {
			caps[b] = k * bankLines
		}
		return caps
	default:
		caps := make([]float64, n)
		for b := range caps {
			caps[b] = float64(1+rng.Intn(25)) * bankLines
		}
		return caps
	}
}

// oracleClaims returns one oracle case's claimed capacity per bank: all
// zero, fractional everywhere, mostly exact zeros, near-ties (values a few
// 1e-10 apart, inside the comparator's 1e-9 tie band), or decaying hot spots
// around random tiles (corners and edges included), which push the winner
// to the cold edges or the interior.
func oracleClaims(rng *rand.Rand, mode int, topo *mesh.Topology, bankLines float64) []float64 {
	n := topo.Tiles()
	claimed := make([]float64, n)
	switch mode {
	case 1:
		for b := range claimed {
			claimed[b] = rng.Float64() * 2 * bankLines
		}
	case 2:
		for b := range claimed {
			if rng.Intn(8) == 0 {
				claimed[b] = rng.Float64() * bankLines
			}
		}
	case 3:
		for b := range claimed {
			claimed[b] = float64(rng.Intn(2))*bankLines + float64(rng.Intn(5))*3e-10
		}
	case 4:
		for hot := 0; hot < 1+rng.Intn(4); hot++ {
			cur := topo.RingFrom(mesh.Tile(rng.Intn(n)))
			r := 1 + rng.Intn(8)
			for {
				b, ok := cur.Next()
				if !ok || cur.Dist() > r {
					break
				}
				claimed[b] += bankLines / float64(1+cur.Dist())
			}
		}
	}
	return claimed
}

// oracleSizes returns the VC sizes one oracle case tries: zero, below the
// 1e-9 cut-off, a fraction of a bank, exactly one and several banks, a
// random share of the chip, and more than the chip holds.
func oracleSizes(rng *rand.Rand, chip Chip) []float64 {
	total := chip.TotalLines()
	bl := chip.BankLines
	return []float64{
		0, 5e-10, rng.Float64() * bl, bl, float64(2+rng.Intn(6)) * bl,
		rng.Float64() * total / 8, 1.3 * total,
	}
}

func TestBestCenterMatchesFrozenOracle(t *testing.T) {
	// bestCenter must pick exactly the tile the frozen search of
	// centerref_test.go picks, on both sides of PruneThreshold, for every
	// claim shape, capacity layout and VC size the oracle generators make.
	rng := rand.New(rand.NewSource(22))
	dims := [][2]int{
		{1, 1}, {1, 7}, {7, 1}, {2, 3}, {8, 8}, {16, 16}, {17, 15},
		{32, 32}, {33, 31}, {45, 37}, {48, 48}, {64, 64}, {70, 70}, {90, 3},
	}
	for i := 0; i < 4; i++ {
		dims = append(dims, [2]int{1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for _, d := range dims {
		topo := mesh.New(d[0], d[1])
		for capMode := 0; capMode < 3; capMode++ {
			for claimMode := 0; claimMode < 5; claimMode++ {
				chip := Chip{Topo: topo, BankLines: 8192}
				chip.BankCap = oracleCaps(rng, capMode, topo.Tiles(), chip.BankLines)
				claimed := oracleClaims(rng, claimMode, topo, chip.BankLines)
				for _, size := range oracleSizes(rng, chip) {
					got, want := bestCenter(chip, claimed, size), refBestCenter(chip, claimed, size)
					if got != want {
						t.Fatalf("%dx%d caps %d claims %d size %g: bestCenter=%d, frozen=%d",
							d[0], d[1], capMode, claimMode, size, got, want)
					}
				}
			}
		}
	}
}

func TestOptimisticPlaceMatchesFrozenOracle(t *testing.T) {
	// Whole step-2 runs, where each VC's claims shape the next VC's search:
	// every center must match a replay through the frozen search, on flat
	// chips with nil capacities and on coarse-style chips with uniform and
	// ragged ones.
	rng := rand.New(rand.NewSource(23))
	for _, d := range [][2]int{{8, 8}, {15, 15}, {32, 32}, {45, 37}, {64, 64}} {
		topo := mesh.New(d[0], d[1])
		for capMode := 0; capMode < 3; capMode++ {
			chip := Chip{Topo: topo, BankLines: 8192}
			chip.BankCap = oracleCaps(rng, capMode, topo.Tiles(), chip.BankLines)
			demands := make([]Demand, topo.Tiles()/16+3)
			for v := range demands {
				size := rng.Float64() * chip.TotalLines() / float64(len(demands))
				if v%5 == 0 {
					size = float64(rng.Intn(4)) * chip.CapOf(0)
				}
				demands[v] = NewDemand(size, map[int]float64{v: 10})
			}
			opt := OptimisticPlaceIn(nil, chip, demands)
			claimed := make([]float64, topo.Tiles())
			for _, v := range orderBySizeIn(NewArena(), demands) {
				size := demands[v].Size
				if want := refBestCenter(chip, claimed, size); opt.Center[v] != want {
					t.Fatalf("%dx%d caps %d VC %d: center %d, frozen %d", d[0], d[1], capMode, v, opt.Center[v], want)
				}
				cv := &opt.Claims[v]
				for i := 0; i < cv.Len(); i++ {
					b, l := cv.At(i)
					claimed[b] += l
				}
			}
		}
	}
}

func TestFootprintPlanMatchesWalk(t *testing.T) {
	// On uniform-capacity chips, every candidate whose planned banks lie on
	// the mesh sums its footprint from the per-VC plan instead of walking
	// the ring. For any bound, the plan's result must equal the frozen
	// walk's bit for bit, or both must have reached the bound.
	rng := rand.New(rand.NewSource(24))
	planned := 0
	for _, d := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {16, 16}, {23, 9}, {19, 13}, {24, 20}} {
		topo := mesh.New(d[0], d[1])
		for capMode := 0; capMode < 2; capMode++ {
			chip := Chip{Topo: topo, BankLines: 8192}
			chip.BankCap = oracleCaps(rng, capMode, topo.Tiles(), chip.BankLines)
			for claimMode := 0; claimMode < 5; claimMode++ {
				claimed := oracleClaims(rng, claimMode, topo, chip.BankLines)
				for _, size := range oracleSizes(rng, chip) {
					var s centerSearch
					s.init(chip, claimed)
					s.size = size
					s.plan()
					ref := refNewCenterSearch(chip, claimed, size)
					for c := 0; c < topo.Tiles(); c++ {
						x, y := topo.Coords(mesh.Tile(c))
						full := ref.footprint(x, y, math.Inf(1))
						if s.planned && x >= s.x0 && x < s.x1 && y >= s.y0 && y < s.y1 {
							planned++
						}
						for _, bound := range []float64{math.Inf(1), full, math.Nextafter(full, math.Inf(1)), full * rng.Float64(), 0} {
							got, want := s.footprint(c, x, y, bound), ref.footprint(x, y, bound)
							if (got < bound || want < bound) && math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%dx%d caps %d claims %d size %g tile %d bound %g: plan %v, walk %v",
									d[0], d[1], capMode, claimMode, size, c, bound, got, want)
							}
						}
					}
				}
			}
		}
	}
	if planned == 0 {
		t.Fatal("no candidate took the planned footprint")
	}
}
