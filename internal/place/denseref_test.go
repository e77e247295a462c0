package place

// The map-based reference implementation the dense representation replaced,
// retained verbatim (modulo the Demand/Assignment types) as the oracle for
// the bit-identity property: the dense pipeline must produce exactly the
// placements, claims, centers of mass, thread placements, trades and Eq. 2
// hop sums the sorted-map-key implementation produced, at every scale from
// the paper's 8×8 up to the 32×32 pruning regime. Weighted speedups are
// covered end-to-end by TestRunMixArenaBitIdentical in internal/sim and by
// the golden corpus at the repo root.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cdcs/internal/mesh"
)

// refDemand is the map-keyed demand the reference implementation consumes.
type refDemand struct {
	Size      float64
	Accessors map[int]float64
}

// refAssignment is the old representation: per VC, bank→lines.
type refAssignment []map[mesh.Tile]float64

func refNewAssignment(n int) refAssignment {
	a := make(refAssignment, n)
	for i := range a {
		a[i] = map[mesh.Tile]float64{}
	}
	return a
}

func refSortedBanks(m map[mesh.Tile]float64) []mesh.Tile {
	return slices.Sorted(maps.Keys(m))
}

func refSortedAccessors(m map[int]float64) []int {
	return slices.Sorted(maps.Keys(m))
}

func (d refDemand) totalRate() float64 {
	s := 0.0
	for _, t := range refSortedAccessors(d.Accessors) {
		s += d.Accessors[t]
	}
	return s
}

func (a refAssignment) placed(v int) float64 {
	s := 0.0
	for _, b := range refSortedBanks(a[v]) {
		s += a[v][b]
	}
	return s
}

func (a refAssignment) bankUsage(banks int) []float64 {
	use := make([]float64, banks)
	for _, m := range a {
		for b, lines := range m {
			use[b] += lines
		}
	}
	return use
}

func refVCDistances(chip Chip, demands []refDemand, threadCore []mesh.Tile) [][]float64 {
	n := chip.Banks()
	out := make([][]float64, len(demands))
	center := chip.Topo.CenterTile()
	for v, d := range demands {
		row := make([]float64, n)
		total := d.totalRate()
		accessors := refSortedAccessors(d.Accessors)
		for b := 0; b < n; b++ {
			if total == 0 {
				row[b] = float64(chip.Topo.Distance(center, mesh.Tile(b)))
				continue
			}
			sum := 0.0
			for _, t := range accessors {
				sum += d.Accessors[t] * float64(chip.Topo.Distance(threadCore[t], mesh.Tile(b)))
			}
			row[b] = sum / total
		}
		out[v] = row
	}
	return out
}

func refOnChipLatency(chip Chip, demands []refDemand, assign refAssignment, threadCore []mesh.Tile) float64 {
	total := 0.0
	for v, d := range demands {
		size := assign.placed(v)
		if size <= 0 {
			continue
		}
		accessors := refSortedAccessors(d.Accessors)
		for _, b := range refSortedBanks(assign[v]) {
			frac := assign[v][b] / size
			for _, t := range accessors {
				total += d.Accessors[t] * frac * float64(chip.Topo.Distance(threadCore[t], b))
			}
		}
	}
	return total
}

func refCenterOfMass(chip Chip, alloc map[mesh.Tile]float64) (x, y float64) {
	w := make(map[mesh.Tile]float64, len(alloc))
	for b, l := range alloc {
		w[b] = l
	}
	return chip.Topo.CenterOfMass(w)
}

func refOrderBySize(demands []refDemand) []int {
	idx := make([]int, 0, len(demands))
	for i, d := range demands {
		if d.Size > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if demands[idx[a]].Size != demands[idx[b]].Size {
			return demands[idx[a]].Size > demands[idx[b]].Size
		}
		return idx[a] < idx[b]
	})
	return idx
}

// refOptimistic mirrors Optimistic over the map representation.
type refOptimistic struct {
	Center []mesh.Tile
	Claims refAssignment
	CoM    []Point
}

func refOptimisticPlace(chip Chip, demands []refDemand) refOptimistic {
	n := chip.Banks()
	out := refOptimistic{
		Center: make([]mesh.Tile, len(demands)),
		Claims: refNewAssignment(len(demands)),
		CoM:    make([]Point, len(demands)),
	}
	center := chip.Topo.CenterTile()
	for v := range out.Center {
		out.Center[v] = center
		cx, cy := chip.Topo.Coords(center)
		out.CoM[v] = Point{float64(cx), float64(cy)}
	}
	claimed := make([]float64, n)
	for _, v := range refOrderBySize(demands) {
		size := demands[v].Size
		best := bestCenter(chip, claimed, size)
		out.Center[v] = best
		remaining := size
		cur := chip.Topo.RingFrom(best)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			take := chip.BankLines
			if take > remaining {
				take = remaining
			}
			out.Claims[v][b] = take
			claimed[b] += take
			remaining -= take
			if remaining <= 1e-9 {
				break
			}
		}
		x, y := refCenterOfMass(chip, out.Claims[v])
		out.CoM[v] = Point{x, y}
	}
	return out
}

func refPlaceThreads(chip Chip, demands []refDemand, opt refOptimistic, nThreads int) []mesh.Tile {
	type ti struct {
		id         int
		priority   float64
		comX, comY float64
	}
	infos := make([]ti, nThreads)
	for t := 0; t < nThreads; t++ {
		infos[t].id = t
	}
	type acc struct{ wx, wy, w float64 }
	coms := make([]acc, nThreads)
	for v, d := range demands {
		for t, rate := range d.Accessors {
			if t >= nThreads {
				continue
			}
			infos[t].priority += rate * d.Size
			w := rate * (d.Size + 1)
			coms[t].wx += w * opt.CoM[v].X
			coms[t].wy += w * opt.CoM[v].Y
			coms[t].w += w
		}
	}
	ccx, ccy := chip.Topo.Coords(chip.Topo.CenterTile())
	for t := range infos {
		if coms[t].w > 0 {
			infos[t].comX = coms[t].wx / coms[t].w
			infos[t].comY = coms[t].wy / coms[t].w
		} else {
			infos[t].comX, infos[t].comY = float64(ccx), float64(ccy)
		}
	}
	sort.SliceStable(infos, func(i, j int) bool {
		if infos[i].priority != infos[j].priority {
			return infos[i].priority > infos[j].priority
		}
		return infos[i].id < infos[j].id
	})
	free := make([]bool, chip.Banks())
	for i := range free {
		free[i] = true
	}
	out := make([]mesh.Tile, nThreads)
	for _, info := range infos {
		best := -1
		bestDist := 0.0
		for c := 0; c < chip.Banks(); c++ {
			if !free[c] {
				continue
			}
			d := chip.Topo.DistanceToPoint(mesh.Tile(c), info.comX, info.comY)
			if best < 0 || d < bestDist-1e-12 {
				best, bestDist = c, d
			}
		}
		free[best] = false
		out[info.id] = mesh.Tile(best)
	}
	return out
}

func refGreedy(chip Chip, demands []refDemand, threadCore []mesh.Tile, chunk float64) refAssignment {
	if chunk <= 0 {
		chunk = chip.BankLines / 16
	}
	dist := refVCDistances(chip, demands, threadCore)
	assign := refNewAssignment(len(demands))
	free := make([]float64, chip.Banks())
	for i := range free {
		free[i] = chip.BankLines
	}
	type state struct {
		order     []mesh.Tile
		cursor    int
		remaining float64
	}
	states := make([]state, len(demands))
	active := 0
	for v := range demands {
		states[v].remaining = demands[v].Size
		if demands[v].Size > 0 {
			active++
		}
		order := make([]mesh.Tile, chip.Banks())
		for b := range order {
			order[b] = mesh.Tile(b)
		}
		d := dist[v]
		sort.SliceStable(order, func(i, j int) bool {
			if d[order[i]] != d[order[j]] {
				return d[order[i]] < d[order[j]]
			}
			return order[i] < order[j]
		})
		states[v].order = order
	}
	for active > 0 {
		progressed := false
		for v := range demands {
			st := &states[v]
			if st.remaining <= 1e-9 {
				continue
			}
			for st.cursor < len(st.order) && free[st.order[st.cursor]] <= 1e-9 {
				st.cursor++
			}
			if st.cursor >= len(st.order) {
				st.remaining = 0
				active--
				continue
			}
			b := st.order[st.cursor]
			take := chunk
			if take > st.remaining {
				take = st.remaining
			}
			if take > free[b] {
				take = free[b]
			}
			assign[v][b] += take
			free[b] -= take
			st.remaining -= take
			progressed = true
			if st.remaining <= 1e-9 {
				active--
			}
		}
		if !progressed {
			break
		}
	}
	return assign
}

func refPreferredCenter(chip Chip, d refDemand, alloc map[mesh.Tile]float64, threadCore []mesh.Tile) mesh.Tile {
	if d.totalRate() > 0 {
		w := make(map[mesh.Tile]float64, len(d.Accessors))
		for _, t := range refSortedAccessors(d.Accessors) {
			w[threadCore[t]] += d.Accessors[t]
		}
		x, y := chip.Topo.CenterOfMass(w)
		return chip.Topo.NearestTile(x, y)
	}
	x, y := refCenterOfMass(chip, alloc)
	return chip.Topo.NearestTile(x, y)
}

func refMoveCapacity(assign refAssignment, used []float64, residents [][]int, v int, b, nb mesh.Tile, m float64) {
	assign[v][b] -= m
	assign[v][nb] += m
	used[b] -= m
	used[nb] += m
	refAddResident(residents, nb, v)
}

func refAddResident(residents [][]int, b mesh.Tile, v int) {
	for _, u := range residents[b] {
		if u == v {
			return
		}
	}
	residents[b] = append(residents[b], v)
}

func refRefine(chip Chip, demands []refDemand, assign refAssignment, threadCore []mesh.Tile) (trades int, delta float64) {
	dist := refVCDistances(chip, demands, threadCore)
	used := assign.bankUsage(chip.Banks())
	accPerLine := make([]float64, len(demands))
	for v, d := range demands {
		if size := assign.placed(v); size > 0 {
			accPerLine[v] = d.totalRate() / size
		}
	}
	residents := make([][]int, chip.Banks())
	for v := range assign {
		for b, lines := range assign[v] {
			if lines > 1e-9 {
				residents[b] = append(residents[b], v)
			}
		}
	}
	for v := range demands {
		if demands[v].Size <= 0 || accPerLine[v] == 0 {
			continue
		}
		size := assign.placed(v)
		if size <= 1e-9 {
			continue
		}
		com := refPreferredCenter(chip, demands[v], assign[v], threadCore)
		type desirableRef struct {
			bank mesh.Tile
			d    float64
		}
		var desirables []desirableRef
		seen := 0.0
		cur := chip.Topo.RingFrom(com)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			have := assign[v][b]
			if have < chip.BankLines-1e-9 {
				desirables = append(desirables, desirableRef{b, dist[v][b]})
			}
			if have <= 1e-9 {
				continue
			}
			seen += have
			sort.SliceStable(desirables, func(i, j int) bool {
				if desirables[i].d != desirables[j].d {
					return desirables[i].d < desirables[j].d
				}
				return desirables[i].bank < desirables[j].bank
			})
			for _, cand := range desirables {
				if assign[v][b] <= 1e-9 {
					break
				}
				if cand.d >= dist[v][b]-1e-12 {
					break
				}
				moveGain := accPerLine[v] * (cand.d - dist[v][b])
				if room := chip.BankLines - used[cand.bank]; room > 1e-9 {
					m := minF(assign[v][b], room)
					refMoveCapacity(assign, used, residents, v, b, cand.bank, m)
					trades++
					delta += moveGain * m
					if assign[v][b] <= 1e-9 {
						continue
					}
				}
				for _, u := range residents[cand.bank] {
					if u == v || assign[u][cand.bank] <= 1e-9 {
						continue
					}
					if assign[v][b] <= 1e-9 {
						break
					}
					gainU := accPerLine[u] * (dist[u][b] - dist[u][cand.bank])
					if moveGain+gainU >= -1e-12 {
						continue
					}
					m := minF(assign[v][b], assign[u][cand.bank])
					assign[v][b] -= m
					assign[v][cand.bank] += m
					assign[u][cand.bank] -= m
					assign[u][b] += m
					refAddResident(residents, cand.bank, v)
					refAddResident(residents, b, u)
					trades++
					delta += (moveGain + gainU) * m
				}
			}
			if seen >= size-1e-9 {
				break
			}
		}
	}
	return trades, delta
}

// randomRefInstance builds parallel reference/dense views of the same random
// placement problem: 8 to 8+spread-1 VCs, mostly single-accessor plus some
// multi-accessor (shared) ones, and threads on random distinct cores.
func randomRefInstance(rng *rand.Rand, w, h, spread int) (Chip, []refDemand, []Demand, []mesh.Tile) {
	chip := Chip{Topo: mesh.New(w, h), BankLines: 8192}
	n := chip.Banks()
	nVC := 8 + rng.Intn(spread)
	budget := chip.TotalLines() * 0.85
	refs := make([]refDemand, nVC)
	dense := make([]Demand, nVC)
	for i := range refs {
		size := rng.Float64() * budget / float64(nVC) * 1.5
		acc := map[int]float64{i % n: 5 + rng.Float64()*90}
		if rng.Intn(4) == 0 { // shared VC: several accessors
			for k := 0; k < 3+rng.Intn(5); k++ {
				acc[rng.Intn(n)] = 5 + rng.Float64()*40
			}
		}
		if rng.Intn(8) == 0 {
			size = 0 // zero-size VCs exercise the degenerate paths
		}
		refs[i] = refDemand{Size: size, Accessors: acc}
		dense[i] = NewDemand(size, acc)
	}
	threads := RandomThreads(chip, n, rng.Perm(n))
	return chip, refs, dense, threads
}

// assignEqual asserts the dense assignment matches the reference bank maps
// bit for bit (same touched-bank sets, same line values).
func assignEqual(t *testing.T, label string, ref refAssignment, got Assignment) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d VCs vs %d", label, len(got), len(ref))
	}
	for v := range ref {
		banks := got[v].Banks()
		if len(banks) != len(ref[v]) {
			t.Fatalf("%s: VC %d has %d banks, reference %d", label, v, len(banks), len(ref[v]))
		}
		for _, b := range banks {
			rl, ok := ref[v][b]
			if !ok {
				t.Fatalf("%s: VC %d bank %d not in reference", label, v, b)
			}
			if got[v].Get(b) != rl {
				t.Fatalf("%s: VC %d bank %d = %v, reference %v", label, v, b, got[v].Get(b), rl)
			}
		}
	}
}

// TestDenseMatchesMapReference is the bit-identity property: across
// randomized demands from the paper's 8×8 up to 128×128 (past
// PruneThreshold, through every lattice-stride regime, and past
// HierarchyThreshold banks), the dense pipeline — optimistic placement,
// thread placement, greedy, refine — produces exactly the reference's
// placements, and the Eq. 2 hop reductions are bit-equal floats, not
// approximately equal. BankAlloc has one representation at every size, so
// this pins its sorted inserts and lookups against the map at the
// largest mesh too.
func TestDenseMatchesMapReference(t *testing.T) {
	dims := [][2]int{{8, 8}, {16, 16}, {24, 24}, {32, 32}, {48, 48}, {64, 64}, {96, 96}, {128, 128}}
	for _, wh := range dims {
		w, h := wh[0], wh[1]
		trials := 6
		if w*h > 256 {
			trials = 2 // the 24×24/32×32 points are slow; two trials suffice
		}
		if w*h > 1024 {
			if testing.Short() {
				continue
			}
			trials = 1 // kilo-tile references are very slow; one trial each
		}
		// Up to one VC per two tiles; at 128×128 one per 16 (the kilotile
		// mixes' density), since the reference sorts every bank per VC.
		spread := w * h / 2
		if w*h > 96*96 {
			spread = w * h / 16
		}
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(301 + w)))
			ar := NewArena() // reused across trials: reuse must not leak state
			for trial := 0; trial < trials; trial++ {
				chip, refs, dense, threads := randomRefInstance(rng, w, h, spread)

				// Step 2: optimistic placement.
				refOpt := refOptimisticPlace(chip, refs)
				opt := OptimisticPlaceIn(ar, chip, dense)
				for v := range refs {
					if opt.Center[v] != refOpt.Center[v] {
						t.Fatalf("trial %d: VC %d center %d, reference %d", trial, v, opt.Center[v], refOpt.Center[v])
					}
					if opt.CoM[v] != refOpt.CoM[v] {
						t.Fatalf("trial %d: VC %d CoM %v, reference %v", trial, v, opt.CoM[v], refOpt.CoM[v])
					}
				}
				assignEqual(t, "claims", refOpt.Claims, opt.Claims)

				// Step 3: thread placement.
				nThreads := chip.Banks()
				refThreads := refPlaceThreads(chip, refs, refOpt, nThreads)
				gotThreads := PlaceThreadsIn(ar, chip, dense, opt, nThreads)
				for i := range refThreads {
					if gotThreads[i] != refThreads[i] {
						t.Fatalf("trial %d: thread %d on core %d, reference %d", trial, i, gotThreads[i], refThreads[i])
					}
				}

				// Step 4: greedy + refine, against the fixed random threads
				// (exercises VCDistancesIn with multi-accessor demands too).
				refAssign := refGreedy(chip, refs, threads, chip.BankLines/8)
				gotAssign := GreedyIn(ar, chip, dense, threads, chip.BankLines/8)
				assignEqual(t, "greedy", refAssign, gotAssign)

				refLat := refOnChipLatency(chip, refs, refAssign, threads)
				gotLat := OnChipLatency(chip, dense, gotAssign, threads)
				if refLat != gotLat {
					t.Fatalf("trial %d: greedy hops %v, reference %v (diff %g)", trial, gotLat, refLat, math.Abs(refLat-gotLat))
				}

				refTrades, refDelta := refRefine(chip, refs, refAssign, threads)
				gotTrades, gotDelta := RefineIn(ar, chip, dense, gotAssign, threads)
				if refTrades != gotTrades || refDelta != gotDelta {
					t.Fatalf("trial %d: refine (%d, %v), reference (%d, %v)", trial, gotTrades, gotDelta, refTrades, refDelta)
				}
				assignEqual(t, "refined", refAssign, gotAssign)

				refLat = refOnChipLatency(chip, refs, refAssign, threads)
				gotLat = OnChipLatency(chip, dense, gotAssign, threads)
				if refLat != gotLat {
					t.Fatalf("trial %d: refined hops %v, reference %v", trial, gotLat, refLat)
				}
			}
		})
	}
}

// BenchmarkMapReferencePipeline is the before side of the dense-refactor
// before/after table in EXPERIMENTS.md: the retained map-based pipeline on
// the same instances BenchmarkPlacePipeline runs.
func BenchmarkMapReferencePipeline(b *testing.B) {
	for _, dims := range [][2]int{{8, 8}, {24, 24}, {32, 32}} {
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			chip, demands, _ := pipelineInstance(dims[0], dims[1])
			refs := make([]refDemand, len(demands))
			for i, d := range demands {
				acc := map[int]float64{}
				for j, t := range d.Threads {
					acc[t] = d.Rates[j]
				}
				refs[i] = refDemand{Size: d.Size, Accessors: acc}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt := refOptimisticPlace(chip, refs)
				threads := refPlaceThreads(chip, refs, opt, len(refs))
				assign := refGreedy(chip, refs, threads, chip.BankLines/8)
				refRefine(chip, refs, assign, threads)
			}
		})
	}
}
