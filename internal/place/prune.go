package place

import (
	"math"

	"cdcs/internal/mesh"
)

// PruneThreshold is the bank count above which the optimistic placement's
// candidate-center search switches to the pruned two-level form that scales
// to kilo-tile meshes. At or below the threshold —
// which covers every configuration the paper evaluates, up to the 16×16
// ext-scaling point — the pruned paths are never taken, so placement is
// bit-identical to exhaustive search by construction. The golden corpus at
// the repo root (TestGoldenStability) and the exhaustive-equivalence test in
// this package enforce that property.
const PruneThreshold = 256

// latticeTopK is how many coarse-lattice winners seed the exact neighborhood
// re-scan of the pruned candidate search.
const latticeTopK = 4

// CenterWork counts step 2's candidate-center search. The counts are
// deterministic, so a search that scores more candidates or reads more bank
// claims than it used to shows even when timing noise hides it.
type CenterWork struct {
	// Centers is the number of candidate centers whose footprint was summed.
	Centers int
	// Footprint is the number of bank claims those sums read.
	Footprint int
}

func (w *CenterWork) add(o CenterWork) {
	w.Centers += o.Centers
	w.Footprint += o.Footprint
}

// centerSearch accumulates the best candidate center under the optimistic
// comparator (§IV-D): least claimed-capacity contention, near-ties (within
// 1e-9) broken by distance to the chip center, remaining ties by scan order.
// Candidates are always scanned in ascending tile-index order, so the result
// is deterministic. One search serves every VC of a placement: init binds
// the chip, search runs one VC.
//
// When every bank has the same capacity (BankCap nil, or a coarse chip whose
// clusters are all the same size), the sequence of covered-capacity
// subtractions a footprint makes is the same for every candidate. The
// search then plans it once per VC: nFull wholly covered banks, then, if
// partial is set, one bank weighted by frac. A candidate whose planned
// banks all lie on the mesh (its coordinates inside [x0, x1)×[y0, y1))
// reads them at tile c+deltas[i], with no per-offset bounds checks; the
// other candidates, and every candidate on a chip with ragged capacities,
// walk the ring as before. Both sum the same terms in the same order, so
// they agree bit for bit.
type centerSearch struct {
	topo      *mesh.Topology
	w, h      int
	bankLines float64
	bankCap   []float64
	uniform   bool    // every bank holds ucap lines
	ucap      float64 // the uniform capacity
	claimed   []float64
	size      float64
	cx, cy    int // chip center, the tie-break anchor

	// The per-VC footprint plan (see the type comment).
	planned        bool
	nFull          int
	partial        bool
	frac           float64
	x0, x1, y0, y1 int
	deltas         []int // tile-index offset of each ring offset, in ring order
	deltaW, deltaH int   // the mesh deltas was built for

	work CenterWork // counted for the current VC only

	best     mesh.Tile
	bestCont float64
	bestDist int
}

// init binds s to a chip and its claim tally, keeping the delta buffer.
func (s *centerSearch) init(chip Chip, claimed []float64) {
	s.topo, s.w, s.h = chip.Topo, chip.Topo.Width(), chip.Topo.Height()
	s.bankLines, s.bankCap, s.claimed = chip.BankLines, chip.BankCap, claimed
	s.cx, s.cy = chip.Topo.Coords(chip.Topo.CenterTile())
	s.uniform, s.ucap = true, chip.BankLines
	if chip.BankCap != nil {
		s.ucap = chip.BankCap[0]
		for _, c := range chip.BankCap {
			if c != s.ucap {
				s.uniform = false
				break
			}
		}
	}
}

// release drops s's references to the chip and its tally, keeping only the
// delta buffer, so an arena between placements holds no topology alive.
func (s *centerSearch) release() {
	*s = centerSearch{deltas: s.deltas, deltaW: s.deltaW, deltaH: s.deltaH}
}

// plan sets up the per-VC footprint plan for a VC of s.size lines. It
// replays the walk's capacity subtractions, so nFull, partial and frac are
// exactly what the walk meets at every candidate whose needed banks are all
// on the mesh. A VC that needs more banks than the chip has gets no plan.
func (s *centerSearch) plan() {
	s.planned, s.nFull, s.partial = false, 0, false
	if !s.uniform {
		return
	}
	n := s.w * s.h
	if r := s.size; !(r <= 1e-9) { // the walk's own test, so a NaN size matches too
		for {
			if s.ucap > r {
				s.partial, s.frac = true, r/s.ucap
				break
			}
			r -= s.ucap
			s.nFull++
			if r <= 1e-9 {
				break
			}
			if s.nFull == n {
				return // the walk runs off the chip
			}
		}
	}
	needed := s.nFull
	if s.partial {
		needed++
	}
	if s.deltaW != s.w || s.deltaH != s.h {
		s.deltas, s.deltaW, s.deltaH = s.deltas[:0], s.w, s.h
	}
	// The offset table depends only on the mesh's dimensions, so a prefix
	// built for an earlier VC on the same dimensions is extended, not rebuilt.
	offs := s.topo.Offsets()
	for i := len(s.deltas); i < needed; i++ {
		s.deltas = append(s.deltas, int(offs[i].DY)*s.w+int(offs[i].DX))
	}
	minX, maxX, minY, maxY := 0, 0, 0, 0
	for _, o := range offs[:needed] {
		minX, maxX = min(minX, int(o.DX)), max(maxX, int(o.DX))
		minY, maxY = min(minY, int(o.DY)), max(maxY, int(o.DY))
	}
	s.x0, s.x1, s.y0, s.y1 = -minX, s.w-maxX, -minY, s.h-maxY
	s.planned = true
}

// footprint sums already-claimed capacity over the banks a compact placement
// of size lines around tile c = (x, y) would cover, weighting the last,
// partially covered bank by the fraction needed (Fig. 7b's hatched area); a
// fully covered bank's weight is exactly 1, so it adds its claim as is. The
// sum stops early, returning a partial sum >= bound, once it reaches bound:
// the terms are non-negative, so the full sum could only be larger. A
// result below bound is therefore always the exact full sum. This is the
// placement hot loop, run once per scored candidate per VC.
func (s *centerSearch) footprint(c, x, y int, bound float64) float64 {
	if !s.planned || x < s.x0 || x >= s.x1 || y < s.y0 || y >= s.y1 {
		return s.walk(x, y, bound)
	}
	s.work.Centers++
	claimed := s.claimed
	cont := 0.0
	for i, d := range s.deltas[:s.nFull] {
		cont += claimed[c+d]
		if cont >= bound {
			s.work.Footprint += i + 1
			return cont
		}
	}
	if s.partial {
		s.work.Footprint += s.nFull + 1
		return cont + claimed[c+s.deltas[s.nFull]]*s.frac
	}
	s.work.Footprint += s.nFull
	return cont
}

// walk is footprint for any candidate on any chip: it ranges over the mesh's
// offset table, skips the offsets that fall off the mesh, and reads each
// bank's capacity as it goes.
func (s *centerSearch) walk(x, y int, bound float64) float64 {
	s.work.Centers++
	topo, bankCap, bankLines, claimed := s.topo, s.bankCap, s.bankLines, s.claimed
	w, h := s.w, s.h
	cont := 0.0
	remaining := s.size
	if remaining <= 1e-9 {
		return 0
	}
	visited := 0
	for _, o := range topo.Offsets() {
		bx, by := x+int(o.DX), y+int(o.DY)
		if uint(bx) >= uint(w) || uint(by) >= uint(h) {
			continue // off the mesh
		}
		visited++
		b := by*w + bx
		bcap := bankLines
		if bankCap != nil {
			bcap = bankCap[b]
		}
		if bcap > remaining {
			cont += claimed[b] * (remaining / bcap)
			break
		}
		cont += claimed[b]
		remaining -= bcap
		if remaining <= 1e-9 || cont >= bound {
			break
		}
	}
	s.work.Footprint += visited
	return cont
}

// consider scores candidate c = (x, y) and keeps it if it beats the best so
// far. The comparator fixes a bound the candidate's contention must stay
// under to win: bestCont+1e-9 when it is nearer the chip center than the
// best, bestCont-1e-9 otherwise. Contention is a sum of non-negative terms,
// so the footprint stops once it reaches the bound, and a bound <= 0 rules
// the candidate out without a footprint.
func (s *centerSearch) consider(c, x, y int) {
	dc := abs(x-s.cx) + abs(y-s.cy)
	bound := math.Inf(1)
	if s.bestCont >= 0 {
		if dc < s.bestDist {
			bound = s.bestCont + 1e-9
		} else {
			bound = s.bestCont - 1e-9
		}
		if bound <= 0 {
			return
		}
	}
	if cont := s.footprint(c, x, y, bound); cont < bound {
		s.best, s.bestCont, s.bestDist = mesh.Tile(c), cont, dc
	}
}

// search picks the least-contended center for a VC of the given size and
// returns it with the work it took. Chips at or below PruneThreshold banks
// scan every tile in raster order — exactly the paper's search; larger
// chips run the two-level pruned scan.
func (s *centerSearch) search(size float64) (mesh.Tile, CenterWork) {
	s.size = size
	s.best, s.bestCont, s.bestDist = 0, -1, 0
	s.work = CenterWork{}
	s.plan()
	if s.w*s.h > PruneThreshold {
		s.prunedScan()
	} else if s.planned && s.nFull == 0 && s.partial {
		s.singleBankScan()
	} else {
		for y, c := 0, 0; y < s.h; y++ {
			for x := 0; x < s.w; x, c = x+1, c+1 {
				s.consider(c, x, y)
			}
		}
	}
	return s.best, s.work
}

// singleBankScan is the exhaustive scan for a VC that fits in part of one
// bank on a uniform chip: every candidate's contention is its own bank's
// claim weighted by frac, so the scan inlines consider's comparator around
// that one product.
func (s *centerSearch) singleBankScan() {
	claimed, frac := s.claimed, s.frac
	best, bestCont, bestDist := 0, -1.0, 0
	scored := 0
	for y, c := 0, 0; y < s.h; y++ {
		dy := abs(y - s.cy)
		for x := 0; x < s.w; x, c = x+1, c+1 {
			dc := dy + abs(x-s.cx)
			bound := math.Inf(1)
			if bestCont >= 0 {
				if dc < bestDist {
					bound = bestCont + 1e-9
				} else {
					bound = bestCont - 1e-9
				}
				if bound <= 0 {
					continue
				}
			}
			scored++
			if cont := claimed[c] * frac; cont < bound {
				best, bestCont, bestDist = c, cont, dc
			}
		}
	}
	s.best, s.bestCont, s.bestDist = mesh.Tile(best), bestCont, bestDist
	s.work.Centers += scored
	s.work.Footprint += scored
}

// latticeStride returns the smallest stride >= 1 whose coarse lattice over a
// w×h mesh has at most PruneThreshold points.
func latticeStride(w, h int) int {
	s := 1
	for ((w+s-1)/s)*((h+s-1)/s) > PruneThreshold {
		s++
	}
	return s
}

// latticeScored is one coarse-lattice candidate's score in the pruned scan.
type latticeScored struct {
	tile mesh.Tile
	cont float64
	dist int
}

// latticeBetter is the pruned scan's total order over lattice scores: the
// exhaustive comparator's criteria (contention, then distance to the chip
// center) with an index tie-break so ranking is deterministic.
func latticeBetter(a, b latticeScored) bool {
	if a.cont != b.cont {
		return a.cont < b.cont
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.tile < b.tile
}

// latticeTop holds the best latticeTopK lattice scores, best first.
type latticeTop struct {
	top [latticeTopK]latticeScored
	n   int
}

// score offers lattice point c = (x, y). latticeBetter is a strict total
// order, so the set kept does not depend on the order points are offered
// in, nor on skipping points that cannot enter it. Once the set is full, a
// point enters only if it beats the last entry: never when even zero
// contention would not (contention is non-negative), and otherwise only if
// its contention is at most the last entry's, so its footprint is bounded
// just above that.
func (t *latticeTop) score(se *centerSearch, c, x, y int) {
	s := latticeScored{tile: mesh.Tile(c), dist: abs(x-se.cx) + abs(y-se.cy)}
	bound := math.Inf(1)
	i := t.n
	if i == latticeTopK {
		last := t.top[latticeTopK-1]
		if !latticeBetter(s, last) { // s.cont is 0 here
			return
		}
		bound = math.Nextafter(last.cont, math.Inf(1))
		if s.cont = se.footprint(c, x, y, bound); !latticeBetter(s, last) {
			return // a result >= bound is above last.cont either way
		}
		i = latticeTopK - 1
	} else {
		s.cont = se.footprint(c, x, y, bound)
		t.n++
	}
	for i > 0 && latticeBetter(s, t.top[i-1]) {
		t.top[i] = t.top[i-1]
		i--
	}
	t.top[i] = s
}

// prunedScan is the beyond-paper-scale candidate search: score a coarse
// lattice of at most PruneThreshold tiles (plus the chip center, so an
// uncontended chip still resolves to the center exactly as the exhaustive
// scan does), keep the top latticeTopK via a fixed-size insertion (no
// allocation, no reflection — this runs once per VC), then re-scan those
// winners' lattice cells exactly. The footprint-contention surface varies on
// the scale of a VC footprint, so a winner's cell almost always contains the
// exhaustive optimum; either way the placement stays a valid relaxed claim —
// the refined pass enforces real capacities later.
func (se *centerSearch) prunedScan() {
	w, h := se.w, se.h
	stride := latticeStride(w, h)
	cx, cy := se.cx, se.cy

	var top latticeTop
	for y := 0; y < h; y += stride {
		for x := 0; x < w; x += stride {
			top.score(se, y*w+x, x, y)
		}
	}
	if cx%stride != 0 || cy%stride != 0 { // not already a lattice point
		top.score(se, cy*w+cx, cx, cy)
	}

	// Exact re-scan of each winner's lattice cell, in ring order from the
	// winner out to the radius. A cell's far corner sits at Manhattan
	// distance 2(stride-1) from its lattice point, so that is the radius
	// that guarantees full cell coverage for any stride (for the stride-2
	// lattice of a 32×32 mesh it equals the stride). Overlapping cells may
	// score a tile twice, which the strict-improvement comparator absorbs;
	// the scan order is fixed by the deterministic top-K ranking, so the
	// final tie-break is deterministic too.
	radius := 2 * (stride - 1)
	if radius < stride {
		radius = stride
	}
	offs := se.topo.Offsets()
	for i := 0; i < top.n; i++ {
		tx, ty := se.topo.Coords(top.top[i].tile)
		for _, o := range offs {
			if abs(int(o.DX))+abs(int(o.DY)) > radius {
				break
			}
			x, y := tx+int(o.DX), ty+int(o.DY)
			if uint(x) < uint(w) && uint(y) < uint(h) {
				se.consider(y*w+x, x, y)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
