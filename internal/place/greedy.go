package place

import (
	"slices"

	"cdcs/internal/mesh"
)

// GreedyIn is Jigsaw's data placement and CDCS's refined-placement starting
// point (§IV-F): VCs round-robin over chunk-sized claims, each taking
// capacity from the closest bank (by access-weighted distance) that still
// has room. Real capacity constraints are enforced. Returns the assignment;
// all demand is always placed as long as total demand fits on the chip.
// Scratch and the assignment's backing come from ar (nil: a fresh arena).
func GreedyIn(ar *Arena, chip Chip, demands []Demand, threadCore []mesh.Tile, chunk float64) Assignment {
	if ar == nil {
		ar = NewArena()
	}
	if chunk <= 0 {
		chunk = chip.BankLines / 16
	}
	nb := chip.Banks()
	assign := arenaAssignment(&ar.assign, len(demands))
	free := grow(&ar.free, nb)
	for i := range free {
		free[i] = chip.CapOf(mesh.Tile(i))
	}

	// Per-VC bank preference order, walked by a cursor. Two kinds:
	//
	//   - A VC whose preference order is distance from a single tile — one
	//     accessor with positive rate (sort key rate·distance orders exactly
	//     like distance), or no access at all (the VCDistancesIn center-tile
	//     convention) — walks a mesh.RingCursor from that tile. Both orders
	//     share the ascending-tile-index tie-break, so the cursor yields the
	//     very permutation SortStableFunc would produce: bit-identical
	//     placements, no per-VC O(nb log nb) sort, no distance row at all.
	//     On single-threaded mixes this covers every VC, which is what lets
	//     64×64 sweep cells through the greedy step at full speed.
	//
	//   - Multi-accessor VCs sort a flat arena region by their weighted
	//     distance row, as before.
	ringCenter := func(v int) (mesh.Tile, bool) {
		d := &demands[v]
		if len(d.Threads) == 1 && d.Rates[0] > 0 {
			return threadCore[d.Threads[0]], true
		}
		if d.TotalRate() == 0 {
			return chip.Topo.CenterTile(), true
		}
		return 0, false
	}
	nSorted := 0
	for v := range demands {
		if _, ok := ringCenter(v); !ok {
			nSorted++
		}
	}
	var dist [][]float64
	if nSorted > 0 {
		dist = VCDistancesIn(ar, chip, demands, threadCore)
	}
	orderFlat := grow(&ar.gOrder, nSorted*nb)
	cursors := grow(&ar.gCursors, len(demands))
	remaining := grow(&ar.gRem, len(demands))
	live := ensure(&ar.gLive, len(demands))[:0]
	slot := 0
	for v := range demands {
		if remaining[v] = demands[v].Size; remaining[v] > 1e-9 {
			live = append(live, v)
		}
		cur := &cursors[v]
		if c, ok := ringCenter(v); ok {
			cur.ring = chip.Topo.RingFrom(c)
			cur.bank, cur.ok = cur.ring.Next()
		} else {
			order := orderFlat[slot*nb : (slot+1)*nb]
			slot++
			for b := range order {
				order[b] = mesh.Tile(b)
			}
			d := dist[v]
			slices.SortStableFunc(order, func(x, y mesh.Tile) int {
				if d[x] != d[y] {
					if d[x] < d[y] {
						return -1
					}
					return 1
				}
				return int(x) - int(y)
			})
			cur.bank, cur.order, cur.ok = order[0], order[1:], true
		}
	}

	// Claim rounds: every VC with demand left takes one chunk, in index
	// order, and live drops the VCs that finish (keeping that order). A
	// cursor holds its claim on the current bank until it moves on: the
	// bank is new to the VC, so adding the held sum once is the same
	// sequence of float additions as adding chunk by chunk.
	for len(live) > 0 {
		k := 0
		for _, v := range live {
			// Advance to a bank with free space.
			cur := &cursors[v]
			if cur.ok && free[cur.bank] <= 1e-9 {
				cur.flush(&assign[v])
				cur.seek(free)
			}
			if !cur.ok {
				// Chip full: drop the rest of this VC's demand (can only
				// happen when total demand exceeds capacity).
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
	ar.gLive = live
	return assign
}

// greedyCursor walks one VC's bank preference order: its sorted order when
// set, otherwise its ring. bank is the current candidate; ok turns false once
// the order is exhausted. held is the capacity claimed in bank and not yet
// added to the VC's allocation.
type greedyCursor struct {
	ring  mesh.RingCursor
	order []mesh.Tile
	bank  mesh.Tile
	ok    bool
	held  float64
}

// flush adds the held claim to the VC's allocation.
func (g *greedyCursor) flush(a *BankAlloc) {
	if g.held > 0 {
		a.Add(g.bank, g.held)
		g.held = 0
	}
}

// seek advances to the first bank, from the current one on, with free space.
func (g *greedyCursor) seek(free []float64) {
	for g.ok && free[g.bank] <= 1e-9 {
		if g.order == nil {
			g.bank, g.ok = g.ring.Next()
		} else if g.ok = len(g.order) > 0; g.ok {
			g.bank, g.order = g.order[0], g.order[1:]
		}
	}
}
