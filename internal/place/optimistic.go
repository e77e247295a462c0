package place

import (
	"cdcs/internal/mesh"
)

// Optimistic is the result of contention-aware optimistic VC placement: a
// rough picture of where data should live, used to steer thread placement.
// Claims are relaxed — banks may be over-committed — exactly as in §IV-D.
type Optimistic struct {
	// Center[v] is the tile around which VC v was compacted.
	Center []mesh.Tile
	// Claims[v] holds the lines VC v claimed per bank.
	Claims Assignment
	// CoM[v] is the fractional center of mass of VC v's claims.
	CoM []Point
}

// Point is a fractional tile coordinate.
type Point struct{ X, Y float64 }

// OptimisticPlaceIn runs the paper's optimistic contention-aware VC placement
// (§IV-D, Fig. 7): VCs are placed largest-first; for each VC every tile is
// evaluated as a candidate center by summing the capacity already claimed in
// the banks its compact footprint would cover, and the least-contended tile
// wins. Capacity constraints are relaxed (a claim may exceed bank capacity);
// the refined pass later enforces real capacities.
//
// Above PruneThreshold banks the per-VC candidate search switches to the
// pruned two-level scan (see prune.go); at or below it, every tile is
// evaluated exactly as in the paper. Either way a candidate is scored only
// while it can still win: a footprint sum stops at the bound the current
// best sets, and on chips whose banks all have the same capacity each VC's
// footprint is planned once and read by tile-index offset. One center
// search serves every VC, and its work is added to ar's CenterWork.
// Scratch and the placement's backing come from ar (nil: a fresh arena).
func OptimisticPlaceIn(ar *Arena, chip Chip, demands []Demand) Optimistic {
	if ar == nil {
		ar = NewArena()
	}
	n := chip.Banks()
	out := Optimistic{
		Center: grow(&ar.centers, len(demands)),
		Claims: arenaAssignment(&ar.claims, len(demands)),
		CoM:    grow(&ar.com, len(demands)),
	}
	center := chip.Topo.CenterTile()
	cx, cy := chip.Topo.Coords(center)
	for v := range out.Center {
		out.Center[v] = center // zero-size VCs default to the chip center
		out.CoM[v] = Point{float64(cx), float64(cy)}
	}

	claimed := grow(&ar.claimed, n) // relaxed per-bank claim tally, in lines
	s := &ar.center
	s.init(chip, claimed)
	defer s.release()

	for _, v := range orderBySizeIn(ar, demands) {
		size := demands[v].Size
		best, work := s.search(size)
		ar.centerWork.add(work)
		out.Center[v] = best
		// Claim compactly around the chosen center (up to a full bank per
		// tile, regardless of other VCs' claims: relaxed constraints).
		remaining := size
		cur := chip.Topo.RingFrom(best)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			take := chip.CapOf(b)
			if take > remaining {
				take = remaining
			}
			out.Claims[v].Set(b, take)
			claimed[b] += take
			remaining -= take
			if remaining <= 1e-9 {
				break
			}
		}
		x, y := CenterOfMass(chip, &out.Claims[v])
		out.CoM[v] = Point{x, y}
	}
	return out
}
