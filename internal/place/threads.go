package place

import (
	"math"
	"slices"

	"cdcs/internal/mesh"
)

// threadInfo is one thread's placement priority and preferred location.
type threadInfo struct {
	id       int
	priority float64 // Σ_d rate × size
	comX     float64
	comY     float64
}

// comAcc accumulates a thread's access-weighted center of mass.
type comAcc struct {
	wx, wy, w float64
}

// threadInfosIn accumulates per-thread priority and preferred center of mass
// over the accessed VCs and returns the threads sorted by descending priority
// (index tie-break): the shared front half of the flat and hierarchical
// thread placers. The slice is arena scratch.
func threadInfosIn(ar *Arena, chip Chip, demands []Demand, opt Optimistic, nThreads int) []threadInfo {
	infos := grow(&ar.infos, nThreads)
	for t := 0; t < nThreads; t++ {
		infos[t].id = t
	}
	coms := grow(&ar.coms, nThreads)
	for v := range demands {
		d := &demands[v]
		for i, t := range d.Threads {
			if t >= nThreads {
				continue
			}
			rate := d.Rates[i]
			infos[t].priority += rate * d.Size
			// Weight VC centers by the thread's access rate; VCs with zero
			// allocated size still pull mildly so milc-like threads have a
			// defined (if weak) preference.
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
	slices.SortStableFunc(infos, func(a, b threadInfo) int {
		if a.priority != b.priority {
			if a.priority > b.priority {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	return infos
}

// PlaceThreadsIn implements §IV-E: each thread is placed as close as possible
// to the access-weighted center of mass of the VCs it uses (per the
// optimistic placement), in descending intensity×capacity order so the
// threads for which locality matters most — and whose data is hardest to
// move — pick cores first. Returns thread→core, one thread per core.
//
// nThreads may be smaller than the core count (under-committed systems);
// unused cores stay empty. Scratch and the placement's backing come from ar
// (nil: a fresh arena).
func PlaceThreadsIn(ar *Arena, chip Chip, demands []Demand, opt Optimistic, nThreads int) []mesh.Tile {
	if ar == nil {
		ar = NewArena()
	}
	infos := threadInfosIn(ar, chip, demands, opt, nThreads)

	free := grow(&ar.freeCore, chip.Banks())
	for i := range free {
		free[i] = true
	}
	out := grow(&ar.threads, nThreads)
	for i := range infos {
		info := &infos[i]
		best := nearestFreeCore(ar, chip.Topo, free, info.comX, info.comY)
		if best < 0 {
			// More threads than cores is a configuration error upstream.
			panic("place: more threads than cores")
		}
		free[best] = false
		out[info.id] = best
	}
	return out
}

// coreCand is a free core and its distance to a thread's center of mass.
type coreCand struct {
	t mesh.Tile
	d float64
}

// ringSlack bounds how far beyond the nearest free core nearestFreeCore
// looks. It is far wider than the 1e-12 tolerance of the core comparator
// and than the rounding of DistanceToPoint (about 1e-13 on a 128-wide mesh).
const ringSlack = 1e-9

// nearestFreeCore returns the core scanFreeCores picks for a thread centred
// at (x, y), or -1 when no core is free, by walking rings out from the
// nearest tile instead of scanning every core.
//
// The walk stops once ring distance minus the start tile's own distance to
// the point exceeds best+2·ringSlack, best being the nearest free core seen:
// by the triangle inequality, every tile left is farther than that. The
// cores within ringSlack of best form the low set. When every other free
// core is more than 2e-12 farther than the low set's farthest, a core
// outside the low set can never displace a low one in the comparator chain,
// nor be displaced by one (a low core is always closer by more than 1e-12).
// The chain over all cores then ends where the chain over the low set does,
// so replaying the comparator over the low set in ascending core order
// gives scanFreeCores' answer. If that gap is missing, which takes a core
// within 2e-12 of best+ringSlack, the exhaustive scan decides.
func nearestFreeCore(ar *Arena, topo *mesh.Topology, free []bool, x, y float64) mesh.Tile {
	start := topo.NearestTile(x, y)
	ds := topo.DistanceToPoint(start, x, y)
	cands := ar.coreCands[:0]
	best := math.Inf(1)
	cur := topo.RingFrom(start)
	for {
		t, ok := cur.Next()
		if !ok || float64(cur.Dist())-ds > best+2*ringSlack {
			break
		}
		if free[t] {
			d := topo.DistanceToPoint(t, x, y)
			cands = append(cands, coreCand{t, d})
			best = min(best, d)
		}
	}
	ar.coreCands = cands
	if len(cands) == 0 {
		return -1
	}
	// Split the low set off and check the gap above it.
	low := ar.coreLow[:0]
	maxLow := best
	for _, c := range cands {
		if c.d <= best+ringSlack {
			low = append(low, c)
			maxLow = max(maxLow, c.d)
		}
	}
	ar.coreLow = low
	for _, c := range cands {
		if c.d > best+ringSlack && c.d <= maxLow+2e-12 {
			return scanFreeCores(topo, free, x, y)
		}
	}
	slices.SortFunc(low, func(a, b coreCand) int { return int(a.t) - int(b.t) })
	bc := low[0]
	for _, c := range low[1:] {
		if c.d < bc.d-1e-12 {
			bc = c
		}
	}
	return bc.t
}

// scanFreeCores is the exhaustive form of nearestFreeCore: in ascending
// core order, a free core replaces the incumbent only when it is closer to
// (x, y) by more than 1e-12. It returns -1 when no core is free.
func scanFreeCores(topo *mesh.Topology, free []bool, x, y float64) mesh.Tile {
	best := mesh.Tile(-1)
	bestDist := 0.0
	for c := range free {
		if !free[c] {
			continue
		}
		d := topo.DistanceToPoint(mesh.Tile(c), x, y)
		if best < 0 || d < bestDist-1e-12 {
			best, bestDist = mesh.Tile(c), d
		}
	}
	return best
}

// RandomThreads places threads on distinct random cores (Jigsaw+R): the rng
// must be seeded by the caller for reproducibility.
func RandomThreads(chip Chip, nThreads int, perm []int) []mesh.Tile {
	out := make([]mesh.Tile, nThreads)
	for t := 0; t < nThreads; t++ {
		out[t] = mesh.Tile(perm[t%len(perm)])
	}
	return out
}
