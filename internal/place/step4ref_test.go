package place

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cdcs/internal/mesh"
)

// This file freezes step 4 (§IV-F data placement) as it stood before the
// bucket-built bank lists, the trade pass without dead offers and the
// compact claim rounds: GreedyIn, RefineIn and the hierarchical
// greedy-refine with its level-2 merge. It is the independent oracle the
// production code is checked against, bit for bit, by the frozen-oracle
// tests. Every BankAlloc write is a sorted insert, every resident offer is
// tried, and nothing is shared with the production code except the mesh,
// Chip, Demand and the BankAlloc fields the result is read through. Keep it
// as it is: changing it to follow the production code would leave that
// code checked against itself.

// frozenAdd adds delta lines to bank b by sorted insert and returns the bank's
// new lines.
func frozenAdd(a *BankAlloc, b mesh.Tile, delta float64) float64 {
	i, ok := slices.BinarySearch(a.banks, b)
	if !ok {
		a.banks = slices.Insert(a.banks, i, b)
		a.vals = slices.Insert(a.vals, i, 0)
	}
	a.vals[i] += delta
	return a.vals[i]
}

// frozenSet sets bank b's lines by sorted insert.
func frozenSet(a *BankAlloc, b mesh.Tile, v float64) {
	i, ok := slices.BinarySearch(a.banks, b)
	if !ok {
		a.banks = slices.Insert(a.banks, i, b)
		a.vals = slices.Insert(a.vals, i, 0)
	}
	a.vals[i] = v
}

func frozenPlaced(a *BankAlloc) float64 {
	s := 0.0
	for _, l := range a.vals {
		s += l
	}
	return s
}

// frozenDistRow is the frozen VCDistancesIn row: (r + rate·D)/div per accessor
// in thread order, the last accessor's pass dividing by the total rate.
func frozenDistRow(chip Chip, d *Demand, threadCore []mesh.Tile) []float64 {
	row := make([]float64, chip.Banks())
	add := func(a mesh.Tile, rate, div float64) {
		w := chip.Topo.Width()
		ax, ay := chip.Topo.Coords(a)
		for b := range row {
			x, y := b%w, b/w
			row[b] = (row[b] + rate*float64(abs(x-ax)+abs(y-ay))) / div
		}
	}
	total := d.TotalRate()
	if total == 0 {
		add(chip.Topo.CenterTile(), 1, 1)
		return row
	}
	for i, t := range d.Threads {
		div := 1.0
		if i == len(d.Threads)-1 {
			div = total
		}
		add(threadCore[t], d.Rates[i], div)
	}
	return row
}

// frozenGreedyCursor is the frozen greedyCursor.
type frozenGreedyCursor struct {
	ring  mesh.RingCursor
	order []mesh.Tile
	bank  mesh.Tile
	ok    bool
	held  float64
}

func (g *frozenGreedyCursor) flush(a *BankAlloc) {
	if g.held > 0 {
		frozenAdd(a, g.bank, g.held)
		g.held = 0
	}
}

func (g *frozenGreedyCursor) seek(free []float64) {
	for g.ok && free[g.bank] <= 1e-9 {
		if g.order == nil {
			g.bank, g.ok = g.ring.Next()
		} else if g.ok = len(g.order) > 0; g.ok {
			g.bank, g.order = g.order[0], g.order[1:]
		}
	}
}

// frozenGreedy is the frozen GreedyIn: round-robin chunk claims, one chunk per
// live VC per round, each VC walking its ring or its sorted bank order.
func frozenGreedy(chip Chip, demands []Demand, threadCore []mesh.Tile, chunk float64) Assignment {
	if chunk <= 0 {
		chunk = chip.BankLines / 16
	}
	nb := chip.Banks()
	assign := make(Assignment, len(demands))
	free := make([]float64, nb)
	for i := range free {
		free[i] = chip.CapOf(mesh.Tile(i))
	}
	cursors := make([]frozenGreedyCursor, len(demands))
	remaining := make([]float64, len(demands))
	var live []int
	for v := range demands {
		if remaining[v] = demands[v].Size; remaining[v] > 1e-9 {
			live = append(live, v)
		}
		d := &demands[v]
		cur := &cursors[v]
		switch {
		case len(d.Threads) == 1 && d.Rates[0] > 0:
			cur.ring = chip.Topo.RingFrom(threadCore[d.Threads[0]])
			cur.bank, cur.ok = cur.ring.Next()
		case d.TotalRate() == 0:
			cur.ring = chip.Topo.RingFrom(chip.Topo.CenterTile())
			cur.bank, cur.ok = cur.ring.Next()
		default:
			order := make([]mesh.Tile, nb)
			for b := range order {
				order[b] = mesh.Tile(b)
			}
			dr := frozenDistRow(chip, d, threadCore)
			slices.SortStableFunc(order, func(x, y mesh.Tile) int {
				if dr[x] != dr[y] {
					if dr[x] < dr[y] {
						return -1
					}
					return 1
				}
				return int(x) - int(y)
			})
			cur.bank, cur.order, cur.ok = order[0], order[1:], true
		}
	}
	for len(live) > 0 {
		k := 0
		for _, v := range live {
			cur := &cursors[v]
			if cur.ok && free[cur.bank] <= 1e-9 {
				cur.flush(&assign[v])
				cur.seek(free)
			}
			if !cur.ok {
				remaining[v] = 0
				continue
			}
			b := cur.bank
			take := chunk
			if take > remaining[v] {
				take = remaining[v]
			}
			if take > free[b] {
				take = free[b]
			}
			cur.held += take
			free[b] -= take
			remaining[v] -= take
			if remaining[v] <= 1e-9 {
				cur.flush(&assign[v])
				continue
			}
			live[k] = v
			k++
		}
		live = live[:k]
	}
	return assign
}

// frozenDist is the frozen vcDist: D(v, b) from a single term per query for
// single-accessor and accessorless VCs, from a lazily filled row otherwise.
type frozenDist struct {
	chip       Chip
	demands    []Demand
	threadCore []mesh.Tile
	multi      []bool
	ax, ay     []int
	rate, div  []float64
	rows       map[int][]float64
}

func frozenNewDist(chip Chip, demands []Demand, threadCore []mesh.Tile) *frozenDist {
	n := len(demands)
	rd := &frozenDist{chip: chip, demands: demands, threadCore: threadCore,
		multi: make([]bool, n), ax: make([]int, n), ay: make([]int, n),
		rate: make([]float64, n), div: make([]float64, n), rows: map[int][]float64{}}
	for v := range demands {
		d := &demands[v]
		total := d.TotalRate()
		switch {
		case total == 0:
			rd.ax[v], rd.ay[v] = chip.Topo.Coords(chip.Topo.CenterTile())
			rd.rate[v], rd.div[v] = 1, 1
		case len(d.Threads) == 1:
			rd.ax[v], rd.ay[v] = chip.Topo.Coords(threadCore[d.Threads[0]])
			rd.rate[v], rd.div[v] = d.Rates[0], total
		default:
			rd.multi[v] = true
		}
	}
	return rd
}

func (rd *frozenDist) term(v, hops int) float64 { return (0 + rd.rate[v]*float64(hops)) / rd.div[v] }

func (rd *frozenDist) at(v int, b mesh.Tile) float64 {
	if !rd.multi[v] {
		x, y := rd.chip.Topo.Coords(b)
		return rd.term(v, abs(x-rd.ax[v])+abs(y-rd.ay[v]))
	}
	row, ok := rd.rows[v]
	if !ok {
		row = frozenDistRow(rd.chip, &rd.demands[v], rd.threadCore)
		rd.rows[v] = row
	}
	return row[b]
}

// frozenCenter is the frozen preferredCenter.
func frozenCenter(chip Chip, d *Demand, alloc *BankAlloc, threadCore []mesh.Tile) mesh.Tile {
	if d.TotalRate() > 0 {
		w := map[mesh.Tile]float64{}
		var ts []mesh.Tile
		for i, t := range d.Threads {
			if _, ok := w[threadCore[t]]; !ok {
				ts = append(ts, threadCore[t])
			}
			w[threadCore[t]] += d.Rates[i]
		}
		slices.Sort(ts)
		var wx, wy, wsum float64
		for _, tile := range ts {
			tx, ty := chip.Topo.Coords(tile)
			wx += w[tile] * float64(tx)
			wy += w[tile] * float64(ty)
			wsum += w[tile]
		}
		if wsum == 0 {
			cx, cy := chip.Topo.Coords(chip.Topo.CenterTile())
			return chip.Topo.NearestTile(float64(cx), float64(cy))
		}
		return chip.Topo.NearestTile(wx/wsum, wy/wsum)
	}
	var wx, wy, wsum float64
	for i, b := range alloc.banks {
		tx, ty := chip.Topo.Coords(b)
		wx += alloc.vals[i] * float64(tx)
		wy += alloc.vals[i] * float64(ty)
		wsum += alloc.vals[i]
	}
	if wsum == 0 {
		cx, cy := chip.Topo.Coords(chip.Topo.CenterTile())
		return chip.Topo.NearestTile(float64(cx), float64(cy))
	}
	return chip.Topo.NearestTile(wx/wsum, wy/wsum)
}

type frozenDesirable struct {
	bank mesh.Tile
	d    float64
}

type frozenResident struct {
	vc    int
	lines float64
}

// frozenShift is the frozen shift: move m lines of v from b to nb, mirror
// both banks' resident entries and append v to nb's list if absent.
func frozenShift(assign Assignment, residents [][]frozenResident, v int, b, nb mesh.Tile, m float64) {
	l := frozenAdd(&assign[v], b, -m)
	for i := range residents[b] {
		if residents[b][i].vc == v {
			residents[b][i].lines = l
		}
	}
	l = frozenAdd(&assign[v], nb, m)
	for i := range residents[nb] {
		if residents[nb][i].vc == v {
			residents[nb][i].lines = l
			return
		}
	}
	residents[nb] = append(residents[nb], frozenResident{v, l})
}

// frozenRefineIn is the frozen RefineIn: one pass, each VC in index order
// spiralling from its preferred center, offering the data it meets to
// closer desirable banks (free space first, then every resident in list
// order, drained entries included and skipped).
func frozenRefineIn(chip Chip, demands []Demand, assign Assignment, threadCore []mesh.Tile) (trades int, delta float64) {
	dist := frozenNewDist(chip, demands, threadCore)
	used := make([]float64, chip.Banks())
	for v := range assign {
		for i, b := range assign[v].banks {
			used[b] += assign[v].vals[i]
		}
	}
	accPerLine := make([]float64, len(demands))
	for v := range demands {
		if size := frozenPlaced(&assign[v]); size > 0 {
			accPerLine[v] = demands[v].TotalRate() / size
		}
	}
	residents := make([][]frozenResident, chip.Banks())
	for v := range assign {
		for i, b := range assign[v].banks {
			if l := assign[v].vals[i]; l > 1e-9 {
				residents[b] = append(residents[b], frozenResident{v, l})
			}
		}
	}
	for v := range demands {
		if demands[v].Size <= 0 || accPerLine[v] == 0 {
			continue
		}
		size := frozenPlaced(&assign[v])
		if size <= 1e-9 {
			continue
		}
		av := &assign[v]
		com := frozenCenter(chip, &demands[v], av, threadCore)
		mine := map[mesh.Tile]float64{}
		for i, b := range av.banks {
			mine[b] = av.vals[i]
		}
		var desirables []frozenDesirable
		seen := 0.0
		cur := chip.Topo.RingFrom(com)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			have := mine[b]
			dvb := dist.at(v, b)
			if have < chip.CapOf(b)-1e-9 {
				x := frozenDesirable{b, dvb}
				i, _ := slices.BinarySearchFunc(desirables, x, func(p, q frozenDesirable) int {
					if p.d != q.d {
						if p.d < q.d {
							return -1
						}
						return 1
					}
					return int(p.bank) - int(q.bank)
				})
				desirables = slices.Insert(desirables, i, x)
			}
			if have <= 1e-9 {
				continue
			}
			seen += have
			left := have
			for _, cand := range desirables {
				if left <= 1e-9 {
					break
				}
				if cand.d >= dvb-1e-12 {
					break
				}
				moveGain := accPerLine[v] * (cand.d - dvb)
				if room := chip.CapOf(cand.bank) - used[cand.bank]; room > 1e-9 {
					m := frozenMin(left, room)
					frozenShift(assign, residents, v, b, cand.bank, m)
					used[b] -= m
					used[cand.bank] += m
					left -= m
					trades++
					delta += moveGain * m
					if left <= 1e-9 {
						continue
					}
				}
				for i, n := 0, len(residents[cand.bank]); i < n; i++ {
					u, theirs := residents[cand.bank][i].vc, residents[cand.bank][i].lines
					if u == v || theirs <= 1e-9 {
						continue
					}
					if left <= 1e-9 {
						break
					}
					gainU := accPerLine[u] * (dist.at(u, b) - dist.at(u, cand.bank))
					if moveGain+gainU >= -1e-12 {
						continue
					}
					m := frozenMin(left, theirs)
					frozenShift(assign, residents, v, b, cand.bank, m)
					frozenShift(assign, residents, u, cand.bank, b, m)
					left -= m
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

// frozenHierGreedyRefine is the frozen HierGreedyRefineIn, run sequentially:
// a coarse greedy (and trade) pass over the cluster mesh, each cluster's
// interior placed and refined on its own sub-mesh, and the interiors'
// records merged into the fine assignment by sorted Set in ascending
// cluster order.
func frozenHierGreedyRefine(chip Chip, demands []Demand, threadCore []mesh.Tile, chunk float64, refine bool) (Assignment, int, float64) {
	cl := chip.Topo.Clusters()
	caps := make([]float64, cl.N())
	for c := range caps {
		caps[c] = float64(cl.Count(mesh.Tile(c))) * chip.BankLines
	}
	cchip := Chip{Topo: cl.Coarse(), BankLines: chip.BankLines, BankCap: caps}
	cCores := make([]mesh.Tile, len(threadCore))
	for t, core := range threadCore {
		cCores[t] = cl.Of(core)
	}
	cAssign := frozenGreedy(cchip, demands, cCores, chunk)
	trades, delta := 0, 0.0
	if refine {
		tr, dl := frozenRefineIn(cchip, demands, cAssign, cCores)
		trades, delta = tr, dl*float64(cl.Side())
	}
	cvcs := make([][]frozenSlice, cl.N())
	for v := range demands {
		for i, c := range cAssign[v].banks {
			if l := cAssign[v].vals[i]; l > 1e-9 {
				cvcs[c] = append(cvcs[c], frozenSlice{v, l})
			}
		}
	}
	pullX := make([]float64, len(demands))
	pullY := make([]float64, len(demands))
	ccx, ccy := chip.Topo.Coords(chip.Topo.CenterTile())
	for v := range demands {
		d := &demands[v]
		if total := d.TotalRate(); total > 0 {
			var wx, wy float64
			for i, t := range d.Threads {
				tx, ty := chip.Topo.Coords(threadCore[t])
				wx += d.Rates[i] * float64(tx)
				wy += d.Rates[i] * float64(ty)
			}
			pullX[v], pullY[v] = wx/total, wy/total
		} else {
			pullX[v], pullY[v] = float64(ccx), float64(ccy)
		}
	}
	out := make(Assignment, len(demands))
	for c := 0; c < cl.N(); c++ {
		tr, dl := frozenInterior(chip, cl, c, cvcs[c], pullX, pullY, demands, chunk, refine, out)
		trades += tr
		delta += dl
	}
	return out, trades, delta
}

// frozenInterior places and refines cluster c's VC slices on the cluster's
// sub-mesh and sets the results into out.
func frozenInterior(chip Chip, cl *mesh.Clusters, c int, vcs []frozenSlice, pullX, pullY []float64,
	demands []Demand, chunk float64, refine bool, out Assignment) (trades int, delta float64) {
	if len(vcs) == 0 {
		return 0, 0
	}
	{
		x0, y0, x1, y1 := cl.Bounds(mesh.Tile(c))
		sub := mesh.New(x1-x0, y1-y0)
		schip := Chip{Topo: sub, BankLines: chip.BankLines}
		ds := make([]Demand, len(vcs))
		cores := make([]mesh.Tile, len(vcs))
		for i, e := range vcs {
			ds[i] = Demand{Size: e.lines, Threads: []int{i}, Rates: []float64{demands[e.v].TotalRate()}}
			px := frozenClamp(pullX[e.v], float64(x0), float64(x1-1))
			py := frozenClamp(pullY[e.v], float64(y0), float64(y1-1))
			cores[i] = sub.NearestTile(px-float64(x0), py-float64(y0))
		}
		assign := frozenGreedy(schip, ds, cores, chunk)
		if refine {
			trades, delta = frozenRefineIn(schip, ds, assign, cores)
		}
		for i := range assign {
			for j, b := range assign[i].banks {
				bx, by := sub.Coords(b)
				frozenSet(&out[vcs[i].v], chip.Topo.TileAt(x0+bx, y0+by), assign[i].vals[j])
			}
		}
	}
	return trades, delta
}

// frozenSlice is one VC's capacity slice in one cluster.
type frozenSlice struct {
	v     int
	lines float64
}

func frozenMin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func frozenClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// frozenInstance draws a random step-4 instance on a w×h chip. capKind
// selects the bank capacities: 0 nil (every bank BankLines), 1 a uniform
// BankCap, 2 a ragged one. Demand sizes are fractional and sum to about
// fill times the chip's capacity. Most VCs have one accessor; about one in
// four has several, one in ten none and one in twenty a single accessor of
// rate zero (both of the last two take the chip-center convention).
func frozenInstance(rng *rand.Rand, w, h, capKind int, fill float64) (Chip, []Demand, []mesh.Tile) {
	chip := Chip{Topo: mesh.New(w, h), BankLines: 8192}
	n := chip.Banks()
	switch capKind {
	case 1:
		chip.BankCap = make([]float64, n)
		for b := range chip.BankCap {
			chip.BankCap[b] = 6000
		}
	case 2:
		chip.BankCap = make([]float64, n)
		for b := range chip.BankCap {
			chip.BankCap[b] = 2048 + rng.Float64()*8192
		}
	}
	nVC := 1 + rng.Intn(min(n/2+2, 300))
	weights := make([]float64, nVC)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		sum += weights[i]
	}
	demands := make([]Demand, nVC)
	for i := range demands {
		d := &demands[i]
		d.Size = chip.TotalLines() * fill * weights[i] / sum
		if rng.Intn(12) == 0 {
			d.Size = 0
		}
		switch r := rng.Intn(20); {
		case r < 2: // no accessors
		case r == 2:
			d.Threads, d.Rates = []int{rng.Intn(n)}, []float64{0}
		case r < 8:
			acc := map[int]float64{}
			for k := 0; k < 2+rng.Intn(6); k++ {
				acc[rng.Intn(n)] = 1 + rng.Float64()*40
			}
			*d = NewDemand(d.Size, acc)
		default:
			d.Threads, d.Rates = []int{rng.Intn(n)}, []float64{1 + rng.Float64()*90}
		}
	}
	return chip, demands, RandomThreads(chip, n, rng.Perm(n))
}

// frozenSizes are the chip shapes the frozen-oracle tests sweep: every
// square from 1×1 to 32×32 and every third one on to 70×70 (flat placement
// past HierarchyThreshold included), some ragged rectangles and a long thin
// 90×3.
func frozenSizes() [][2]int {
	var dims [][2]int
	for k := 1; k <= 70; k++ {
		if k <= 32 || k%3 == 1 {
			dims = append(dims, [2]int{k, k})
		}
	}
	return append(dims, [2]int{1, 7}, [2]int{7, 1}, [2]int{5, 13}, [2]int{33, 20}, [2]int{45, 37}, [2]int{65, 64}, [2]int{90, 3})
}

// frozenChunks are the claim sizes: a power of two, the default (chunk 0,
// BankLines/16) and two that are not powers of two, one of them fractional.
var frozenChunks = []float64{1024, 0, 1000, 8192.0 / 7}

// frozenFills are the committed fractions: undercommitted, exactly
// committed and overcommitted (greedy drops what does not fit).
var frozenFills = []float64{0.6, 1, 1.15}

// assignBitsEqual fails unless got and want touch the same banks in the
// same order with bit-equal lines.
func assignBitsEqual(t *testing.T, label string, want, got Assignment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d VCs, oracle %d", label, len(got), len(want))
	}
	for v := range want {
		w, g := &want[v], &got[v]
		if !slices.Equal(w.banks, g.banks) {
			t.Fatalf("%s: VC %d banks %v, oracle %v", label, v, g.banks, w.banks)
		}
		for i := range w.vals {
			if math.Float64bits(w.vals[i]) != math.Float64bits(g.vals[i]) {
				t.Fatalf("%s: VC %d bank %d = %v, oracle %v", label, v, w.banks[i], g.vals[i], w.vals[i])
			}
		}
	}
}

// forFrozenInstances runs f over the frozen-oracle matrix: every size in
// frozenSizes under each capacity kind, cycling chunks and fills, with one
// arena reused throughout (reuse must not leak state between instances).
func forFrozenInstances(t *testing.T, f func(t *testing.T, label string, ar *Arena, chip Chip, demands []Demand, threads []mesh.Tile, chunk float64)) {
	rng := rand.New(rand.NewSource(29))
	ar := NewArena()
	k := 0
	for _, wh := range frozenSizes() {
		if testing.Short() && wh[0]*wh[1] > 1024 && wh[0]%8 != 0 {
			continue
		}
		for capKind := 0; capKind < 3; capKind++ {
			chunk, fill := frozenChunks[k%len(frozenChunks)], frozenFills[k%len(frozenFills)]
			k++
			chip, demands, threads := frozenInstance(rng, wh[0], wh[1], capKind, fill)
			label := fmt.Sprintf("%dx%d cap%d chunk%g fill%g", wh[0], wh[1], capKind, chunk, fill)
			f(t, label, ar, chip, demands, threads, chunk)
		}
	}
}

// TestGreedyMatchesFrozenOracle checks GreedyIn, and the hierarchical
// greedy pass with its level-2 merge, against the frozen step 4 bit for
// bit over the whole instance matrix.
func TestGreedyMatchesFrozenOracle(t *testing.T) {
	forFrozenInstances(t, func(t *testing.T, label string, ar *Arena, chip Chip, demands []Demand, threads []mesh.Tile, chunk float64) {
		assignBitsEqual(t, label+" greedy", frozenGreedy(chip, demands, threads, chunk), GreedyIn(ar, chip, demands, threads, chunk))
		if chip.BankCap != nil {
			return // the hierarchical path sizes clusters from BankLines
		}
		want, wt, wd := frozenHierGreedyRefine(chip, demands, threads, chunk, false)
		got, gt, gd := HierGreedyRefineIn(ar, chip, demands, threads, chunk, false)
		assignBitsEqual(t, label+" hier greedy", want, got)
		if gt != wt || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("%s: hier greedy (%d, %v), oracle (%d, %v)", label, gt, gd, wt, wd)
		}
	})
}

// TestRefineMatchesFrozenOracle checks RefineIn and the hierarchical
// greedy-refine against the frozen step 4: the same refined assignment,
// the same trade count and a bit-equal latency delta, over the whole
// instance matrix.
func TestRefineMatchesFrozenOracle(t *testing.T) {
	forFrozenInstances(t, func(t *testing.T, label string, ar *Arena, chip Chip, demands []Demand, threads []mesh.Tile, chunk float64) {
		want := frozenGreedy(chip, demands, threads, chunk)
		wt, wd := frozenRefineIn(chip, demands, want, threads)
		got := GreedyIn(ar, chip, demands, threads, chunk)
		gt, gd := RefineIn(ar, chip, demands, got, threads)
		assignBitsEqual(t, label+" refined", want, got)
		if gt != wt || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("%s: refine (%d, %v), oracle (%d, %v)", label, gt, gd, wt, wd)
		}
		if chip.BankCap != nil {
			return
		}
		hw, ht, hd := frozenHierGreedyRefine(chip, demands, threads, chunk, true)
		hg, gt2, gd2 := HierGreedyRefineIn(ar, chip, demands, threads, chunk, true)
		assignBitsEqual(t, label+" hier refined", hw, hg)
		if gt2 != ht || math.Float64bits(gd2) != math.Float64bits(hd) {
			t.Fatalf("%s: hier refine (%d, %v), oracle (%d, %v)", label, gt2, gd2, ht, hd)
		}
	})
}
