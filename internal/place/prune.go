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

// centerSearch accumulates the best candidate center under the optimistic
// comparator (§IV-D): least claimed-capacity contention, near-ties (within
// 1e-9) broken by distance to the chip center, remaining ties by scan order.
// Candidates are always scanned in ascending tile-index order, so the result
// is deterministic.
type centerSearch struct {
	topo      *mesh.Topology
	bankLines float64
	bankCap   []float64
	claimed   []float64
	size      float64
	cx, cy    int // chip center, the tie-break anchor

	best     mesh.Tile
	bestCont float64
	bestDist int
}

func newCenterSearch(chip Chip, claimed []float64, size float64) *centerSearch {
	cx, cy := chip.Topo.Coords(chip.Topo.CenterTile())
	return &centerSearch{
		topo: chip.Topo, bankLines: chip.BankLines, bankCap: chip.BankCap,
		claimed: claimed, size: size, cx: cx, cy: cy, bestCont: -1,
	}
}

// footprint sums already-claimed capacity over the banks a compact placement
// of size lines around tile (x, y) would cover, weighting the last, partially
// covered bank by the fraction needed (Fig. 7b's hatched area); a fully
// covered bank's weight is exactly 1, so it adds its claim as is. The walk
// stops early, returning a partial sum >= bound, once the sum reaches bound:
// the terms are non-negative, so the full sum could only be larger. It ranges
// over the mesh's offset table directly: this is the placement hot loop, run
// once per candidate center per VC.
func (s *centerSearch) footprint(x, y int, bound float64) float64 {
	topo, bankCap, bankLines, claimed := s.topo, s.bankCap, s.bankLines, s.claimed
	w, h := topo.Width(), topo.Height()
	cont := 0.0
	remaining := s.size
	if remaining <= 1e-9 {
		return 0
	}
	for _, o := range topo.Offsets() {
		bx, by := x+int(o.DX), y+int(o.DY)
		if uint(bx) >= uint(w) || uint(by) >= uint(h) {
			continue // off the mesh
		}
		b := by*w + bx
		bcap := bankLines
		if bankCap != nil {
			bcap = bankCap[b]
		}
		if bcap > remaining {
			return cont + claimed[b]*(remaining/bcap)
		}
		cont += claimed[b]
		remaining -= bcap
		if remaining <= 1e-9 || cont >= bound {
			break
		}
	}
	return cont
}

// consider scores one candidate and keeps it if it beats the best so far.
// The comparator fixes a bound the candidate's contention must stay under to
// win: bestCont+1e-9 when it is nearer the chip center than the best,
// bestCont-1e-9 otherwise. Contention is a sum of non-negative terms, so the
// footprint walk stops once it reaches the bound, and a bound <= 0 rules the
// candidate out without a walk.
func (s *centerSearch) consider(c mesh.Tile) {
	x, y := s.topo.Coords(c)
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
	if cont := s.footprint(x, y, bound); cont < bound {
		s.best, s.bestCont, s.bestDist = c, cont, dc
	}
}

// bestCenter picks the least-contended center for a VC of the given size.
// Chips at or below PruneThreshold banks scan every tile — exactly the
// paper's search; larger chips run the two-level pruned scan.
func bestCenter(chip Chip, claimed []float64, size float64) mesh.Tile {
	s := newCenterSearch(chip, claimed, size)
	n := chip.Banks()
	if n <= PruneThreshold {
		for c := 0; c < n; c++ {
			s.consider(mesh.Tile(c))
		}
		return s.best
	}
	prunedScan(s)
	return s.best
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

// prunedScan is the beyond-paper-scale candidate search: score a coarse
// lattice of at most PruneThreshold tiles (plus the chip center, so an
// uncontended chip still resolves to the center exactly as the exhaustive
// scan does), keep the top latticeTopK via a fixed-size insertion (no
// allocation, no reflection — this runs once per VC), then re-scan those
// winners' lattice cells exactly. The footprint-contention surface varies on
// the scale of a VC footprint, so a winner's cell almost always contains the
// exhaustive optimum; either way the placement stays a valid relaxed claim —
// the refined pass enforces real capacities later.
func prunedScan(se *centerSearch) {
	topo := se.topo
	w, h := topo.Width(), topo.Height()
	stride := latticeStride(w, h)
	center := topo.CenterTile()
	cx, cy := se.cx, se.cy

	var top [latticeTopK]latticeScored
	nTop := 0
	score := func(c mesh.Tile) {
		x, y := topo.Coords(c)
		s := latticeScored{c, se.footprint(x, y, math.Inf(1)), abs(x-cx) + abs(y-cy)}
		i := nTop
		if i < latticeTopK {
			nTop++
		} else if !latticeBetter(s, top[latticeTopK-1]) {
			return
		} else {
			i = latticeTopK - 1
		}
		for i > 0 && latticeBetter(s, top[i-1]) {
			top[i] = top[i-1]
			i--
		}
		top[i] = s
	}
	for y := 0; y < h; y += stride {
		for x := 0; x < w; x += stride {
			score(topo.TileAt(x, y))
		}
	}
	if cx%stride != 0 || cy%stride != 0 { // not already a lattice point
		score(center)
	}

	// Exact re-scan of each winner's lattice cell. A cell's far corner sits
	// at Manhattan distance 2(stride-1) from its lattice point, so that is
	// the radius that guarantees full cell coverage for any stride (for the
	// stride-2 lattice of a 32×32 mesh it equals the stride). Overlapping
	// cells may score a tile twice, which the strict-improvement comparator
	// absorbs; the scan order is fixed by the deterministic top-K ranking,
	// so the final tie-break is deterministic too.
	radius := 2 * (stride - 1)
	if radius < stride {
		radius = stride
	}
	for i := 0; i < nTop; i++ {
		cur := topo.RingFrom(top[i].tile)
		for {
			b, ok := cur.Next()
			if !ok || cur.Dist() > radius {
				break
			}
			se.consider(b)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
