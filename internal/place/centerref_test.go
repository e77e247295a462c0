package place

import (
	"math"

	"cdcs/internal/mesh"
)

// This file freezes step 2's candidate-center search as it stood before the
// bounded lattice, the per-VC footprint plan and the tight single-bank scan
// (prune.go). It is the independent oracle the production search is checked
// against: every walk is an unbounded-or-consider-bounded ring walk with
// per-offset bounds checks, every lattice point is scored in full, and
// nothing is shared with the production code except the mesh and Chip.
// Keep it as it is: changing it to follow the production search would leave
// that search checked against itself.

// refCenterSearch is the frozen form of centerSearch.
type refCenterSearch struct {
	topo      *mesh.Topology
	bankLines float64
	bankCap   []float64
	claimed   []float64
	size      float64
	cx, cy    int

	best     mesh.Tile
	bestCont float64
	bestDist int
}

func refNewCenterSearch(chip Chip, claimed []float64, size float64) *refCenterSearch {
	cx, cy := chip.Topo.Coords(chip.Topo.CenterTile())
	return &refCenterSearch{
		topo: chip.Topo, bankLines: chip.BankLines, bankCap: chip.BankCap,
		claimed: claimed, size: size, cx: cx, cy: cy, bestCont: -1,
	}
}

// footprint is the frozen ring walk: claimed capacity over the banks a
// compact placement of size lines around (x, y) covers, the last bank
// weighted by the fraction needed, stopping once the sum reaches bound.
func (s *refCenterSearch) footprint(x, y int, bound float64) float64 {
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
			continue
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

// consider is the frozen optimistic comparator.
func (s *refCenterSearch) consider(c mesh.Tile) {
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

// refBestCenter is the frozen bestCenter: every tile at or below
// PruneThreshold banks, the frozen pruned scan above it.
func refBestCenter(chip Chip, claimed []float64, size float64) mesh.Tile {
	s := refNewCenterSearch(chip, claimed, size)
	n := chip.Banks()
	if n <= PruneThreshold {
		for c := 0; c < n; c++ {
			s.consider(mesh.Tile(c))
		}
		return s.best
	}
	refPrunedScan(s)
	return s.best
}

// refPrunedScan is the frozen pruned scan: every lattice point (and the chip
// center) scored with an unbounded walk, the top latticeTopK kept, then each
// winner's cell re-scanned with consider.
func refPrunedScan(se *refCenterSearch) {
	topo := se.topo
	w, h := topo.Width(), topo.Height()
	stride := latticeStride(w, h)
	center := topo.CenterTile()
	cx, cy := se.cx, se.cy

	type scored struct {
		tile mesh.Tile
		cont float64
		dist int
	}
	better := func(a, b scored) bool {
		if a.cont != b.cont {
			return a.cont < b.cont
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		return a.tile < b.tile
	}
	var top [latticeTopK]scored
	nTop := 0
	score := func(c mesh.Tile) {
		x, y := topo.Coords(c)
		s := scored{c, se.footprint(x, y, math.Inf(1)), abs(x-cx) + abs(y-cy)}
		i := nTop
		if i < latticeTopK {
			nTop++
		} else if !better(s, top[latticeTopK-1]) {
			return
		} else {
			i = latticeTopK - 1
		}
		for i > 0 && better(s, top[i-1]) {
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
	if cx%stride != 0 || cy%stride != 0 {
		score(center)
	}

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

// exhaustiveBestCenter is the paper's unpruned candidate search at any size,
// on the frozen comparator: the reference the pruned path must degenerate
// to at paper scale.
func exhaustiveBestCenter(chip Chip, claimed []float64, size float64) mesh.Tile {
	s := refNewCenterSearch(chip, claimed, size)
	for c := 0; c < chip.Banks(); c++ {
		s.consider(mesh.Tile(c))
	}
	return s.best
}

// footprintContention is the full (unbounded) contention of a compact
// placement of size lines around c, by the frozen walk.
func footprintContention(chip Chip, claimed []float64, c mesh.Tile, size float64) float64 {
	x, y := chip.Topo.Coords(c)
	return refNewCenterSearch(chip, claimed, size).footprint(x, y, math.Inf(1))
}
