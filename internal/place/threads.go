package place

import (
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
		if best < 0 {
			// More threads than cores is a configuration error upstream.
			panic("place: more threads than cores")
		}
		free[best] = false
		out[info.id] = mesh.Tile(best)
	}
	return out
}

// ClusteredThreads packs threads onto cores in index order (tile 0, 1, 2…):
// the "clustered" scheduler of §II-B/§VI (Jigsaw+C) that groups instances of
// the same process next to each other.
func ClusteredThreads(chip Chip, nThreads int) []mesh.Tile {
	out := make([]mesh.Tile, nThreads)
	for t := 0; t < nThreads; t++ {
		out[t] = mesh.Tile(t % chip.Banks())
	}
	return out
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
