package place

import (
	"math/rand"
	"slices"
	"testing"

	"cdcs/internal/mesh"
)

// randomInstance builds a random feasible placement problem on an 8x8 chip.
func randomInstance(rng *rand.Rand) (Chip, []Demand, []mesh.Tile) {
	chip := Chip{Topo: mesh.New(8, 8), BankLines: 8192}
	n := 4 + rng.Intn(24)
	demands := make([]Demand, n)
	budget := chip.TotalLines() * 0.9
	for i := range demands {
		size := rng.Float64() * budget / float64(n) * 2
		if size > budget {
			size = budget
		}
		budget -= size
		demands[i] = NewDemand(size, map[int]float64{i % 64: 5 + rng.Float64()*90})
	}
	threads := RandomThreads(chip, 64, rng.Perm(64))
	return chip, demands, threads
}

func TestPropertyGreedyFeasibleAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 60; trial++ {
		chip, demands, threads := randomInstance(rng)
		a := GreedyIn(nil, chip, demands, threads, 512)
		if err := a.Validate(chip, demands, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPropertyRefinePreservesFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 60; trial++ {
		chip, demands, threads := randomInstance(rng)
		a := GreedyIn(nil, chip, demands, threads, 512)
		before := OnChipLatency(chip, demands, a, threads)
		RefineIn(nil, chip, demands, a, threads)
		if err := a.Validate(chip, demands, 1); err != nil {
			t.Fatalf("trial %d after refine: %v", trial, err)
		}
		after := OnChipLatency(chip, demands, a, threads)
		if after > before+1e-6 {
			t.Fatalf("trial %d: refine regressed %g -> %g", trial, before, after)
		}
	}
}

func TestPropertyRefineRoundsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 20; trial++ {
		chip, demands, threads := randomInstance(rng)
		base := GreedyIn(nil, chip, demands, threads, 512)
		prev := OnChipLatency(chip, demands, base, threads)
		for _, rounds := range []int{1, 2, 4} {
			a := base.Clone()
			RefineRounds(chip, demands, a, threads, rounds)
			lat := OnChipLatency(chip, demands, a, threads)
			if lat > prev+1e-6 {
				t.Fatalf("trial %d: %d rounds latency %g above previous %g", trial, rounds, lat, prev)
			}
			prev = lat
		}
	}
}

func TestPropertyOptimalIsLowerBound(t *testing.T) {
	// The exact transportation solve lower-bounds greedy, greedy+refine, and
	// random feasible placements.
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 8; trial++ {
		chip := Chip{Topo: mesh.New(8, 8), BankLines: 8192}
		n := 8
		demands := make([]Demand, n)
		for i := range demands {
			demands[i] = NewDemand(float64(1+rng.Intn(4))*4096, map[int]float64{i: 5 + rng.Float64()*90})
		}
		threads := RandomThreads(chip, n, rng.Perm(64))
		opt := OptimalTransport(chip, demands, threads, 512)
		optLat := OnChipLatency(chip, demands, opt, threads)

		greedy := GreedyIn(nil, chip, demands, threads, 512)
		if optLat > OnChipLatency(chip, demands, greedy, threads)+1e-6 {
			t.Fatalf("trial %d: optimal above greedy", trial)
		}
		RefineIn(nil, chip, demands, greedy, threads)
		if optLat > OnChipLatency(chip, demands, greedy, threads)+1e-6 {
			t.Fatalf("trial %d: optimal above greedy+refine", trial)
		}
	}
}

func TestPropertyOptimisticClaimsMatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 60; trial++ {
		chip, demands, _ := randomInstance(rng)
		opt := OptimisticPlaceIn(nil, chip, demands)
		for v := range demands {
			if got := opt.Claims.Placed(v); got < demands[v].Size-1 || got > demands[v].Size+1 {
				t.Fatalf("trial %d: VC %d claimed %g of %g", trial, v, got, demands[v].Size)
			}
			// Per-bank claims never exceed a bank (per-VC).
			for _, b := range opt.Claims[v].Banks() {
				if lines := opt.Claims[v].Get(b); lines > chip.BankLines+1e-9 {
					t.Fatalf("trial %d: VC %d claims %g in bank %d", trial, v, lines, b)
				}
			}
		}
	}
}

func TestPropertyPlaceThreadsBijective(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	for trial := 0; trial < 40; trial++ {
		chip, demands, _ := randomInstance(rng)
		opt := OptimisticPlaceIn(nil, chip, demands)
		nThreads := 1 + rng.Intn(64)
		cores := PlaceThreadsIn(nil, chip, demands, opt, nThreads)
		seen := map[mesh.Tile]bool{}
		for _, c := range cores {
			if seen[c] {
				t.Fatalf("trial %d: core %d reused", trial, c)
			}
			if int(c) < 0 || int(c) >= chip.Banks() {
				t.Fatalf("trial %d: core %d out of range", trial, c)
			}
			seen[c] = true
		}
	}
}

func TestPropertyAnnealNeverWorseThanStart(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for trial := 0; trial < 10; trial++ {
		chip, demands, threads := randomInstance(rng)
		a := GreedyIn(nil, chip, demands, threads, 512)
		before := OnChipLatency(chip, demands, a, threads)
		improved, _ := AnnealThreads(chip, demands, a, threads, 2000, rng)
		after := OnChipLatency(chip, demands, a, improved)
		// Annealing keeps the best-so-far implicitly via cooling; allow a
		// tiny tolerance for late accepted uphill moves.
		if after > before*1.05+1e-6 {
			t.Fatalf("trial %d: annealing regressed %g -> %g", trial, before, after)
		}
	}
}

// TestPropertyNearestFreeCoreMatchesScan checks the ring search of
// PlaceThreadsIn against the exhaustive scan it replaces, on meshes from
// 1×1 up, free-core masks down to a single free core, and centers of mass
// at integer and half-integer coordinates (exact ties between cores), at
// half-integers nudged by less and more than the comparator's 1e-12
// tolerance, and at random points.
func TestPropertyNearestFreeCoreMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	nudges := []float64{0, 1e-13, -1e-13, 4e-13, -7e-13, 1e-12, -1e-12, 1.5e-12, -2.5e-12, 3e-12, 1e-9, -1e-9}
	coord := func(n int) float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(n))
		case 1:
			return float64(rng.Intn(n)) + 0.5
		case 2:
			return float64(rng.Intn(n)) + 0.5 + nudges[rng.Intn(len(nudges))]
		default:
			return rng.Float64()*float64(n) - 0.5
		}
	}
	ar := NewArena()
	for trial := 0; trial < 400; trial++ {
		w, h := 1+rng.Intn(24), 1+rng.Intn(24)
		if trial%50 == 0 {
			w, h = 64, 64
		}
		topo := mesh.New(w, h)
		free := make([]bool, topo.Tiles())
		density := rng.Float64()
		for c := range free {
			free[c] = rng.Float64() < density
		}
		// Place threads until no core is free: the last placements see one
		// free core, and an empty chip must report -1 on both paths.
		for {
			x, y := coord(w), coord(h)
			got := nearestFreeCore(ar, topo, free, x, y)
			want := scanFreeCores(topo, free, x, y)
			if got != want {
				t.Fatalf("trial %d: %dx%d mesh, CoM (%v, %v): ring search picked %d, scan %d",
					trial, w, h, x, y, got, want)
			}
			if want < 0 {
				break
			}
			free[want] = false
		}
	}
}

func TestPropertyDesirablesMatchStableSort(t *testing.T) {
	// The trade pass keeps its candidate list sorted by inserting each bank
	// at its binary-search position. It must hold, after every insertion,
	// exactly the list a stable sort of the candidates met so far builds
	// under the (d, bank) comparator the pass used to sort with. Distances
	// come from a handful of values so exact ties are common, and banks are
	// distinct, as on a spiral.
	rng := rand.New(rand.NewSource(11))
	byDistThenBank := func(x, y desirable) int {
		if x.d != y.d {
			if x.d < y.d {
				return -1
			}
			return 1
		}
		return int(x.bank) - int(y.bank)
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		banks := rng.Perm(4 * n)[:n]
		levels := 1 + rng.Intn(6)
		var got, met []desirable
		for i, b := range banks {
			x := desirable{bank: mesh.Tile(b), d: float64(rng.Intn(levels)) * 0.375}
			if trial%3 == 0 {
				// Spiral-like: distances never decrease, so most inserts
				// take the append path.
				x.d = float64(i*levels/n) * 0.375
			}
			got = insertDesirable(got, x)
			met = append(met, x)
			want := slices.Clone(met)
			slices.SortStableFunc(want, byDistThenBank)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d after %d inserts: got %v, want %v", trial, len(met), got, want)
			}
		}
	}
}
