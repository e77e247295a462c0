package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cdcs/internal/mesh"
)

// exhaustiveBestCenter is the paper's unpruned candidate search, kept as the
// reference the pruned path must degenerate to at paper scale.
func exhaustiveBestCenter(chip Chip, claimed []float64, size float64) mesh.Tile {
	s := newCenterSearch(chip, claimed, size)
	for c := 0; c < chip.Banks(); c++ {
		s.consider(mesh.Tile(c))
	}
	return s.best
}

// footprintContention is the full (unbounded) contention of a compact
// placement of size lines around c.
func footprintContention(chip Chip, claimed []float64, c mesh.Tile, size float64) float64 {
	x, y := chip.Topo.Coords(c)
	return newCenterSearch(chip, claimed, size).footprint(x, y, math.Inf(1))
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
