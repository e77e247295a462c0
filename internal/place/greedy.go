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
	//     distance row.
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
	orderFlat := grow(&ar.gOrder, nSorted*nb)
	cursors := grow(&ar.gCursors, len(demands))
	state := grow(&ar.gState, len(demands))
	live := ensure(&ar.gLive, len(demands))[:0]
	// A VC records a bank when it leaves it full or finishes there. Room
	// for one record per bank and one per VC covers most placements;
	// append grows past it when many VCs share banks.
	recs := ensure(&ar.recs, nb+len(demands))[:0]
	slot := 0
	for v := range demands {
		st := &state[v]
		if st.rem = demands[v].Size; st.rem > 1e-9 {
			live = append(live, v)
		}
		cur := &cursors[v]
		if c, ok := ringCenter(v); ok {
			cur.ring = chip.Topo.RingFrom(c)
			b, ok := cur.ring.Next()
			st.bank, st.ok = int32(b), ok
		} else {
			// The sort key is VCDistancesIn's row, filled for this VC
			// alone into one reused row. The comparator is a total order
			// (ties by bank id), so an unstable sort gives the very
			// permutation a stable one would.
			d := grow(&ar.gDist, nb)
			fillDistanceRow(d, chip, &demands[v], threadCore)
			order := orderFlat[slot*nb : (slot+1)*nb]
			slot++
			for b := range order {
				order[b] = mesh.Tile(b)
			}
			slices.SortFunc(order, func(x, y mesh.Tile) int {
				if d[x] != d[y] {
					if d[x] < d[y] {
						return -1
					}
					return 1
				}
				return int(x) - int(y)
			})
			st.bank, st.ok = int32(order[0]), true
			cur.order = order[1:]
		}
	}

	// Claim rounds: every VC with demand left takes one chunk, in index
	// order, and live drops the VCs that finish (keeping that order). A VC
	// holds its claim on the current bank until it moves on: the bank is new
	// to the VC, so adding the held sum once is the same sequence of float
	// additions as adding chunk by chunk. The rounds read only the compact
	// per-VC state; a VC's cursor is touched only when its bank fills.
	claims := 0
	for len(live) > 0 {
		k := 0
		for _, v := range live {
			// Advance to a bank with free space.
			st := &state[v]
			if st.ok && free[st.bank] <= 1e-9 {
				recs = st.flush(recs, v)
				cursors[v].seek(st, free)
			}
			if !st.ok {
				// Chip full: drop the rest of this VC's demand (can only
				// happen when total demand exceeds capacity).
				st.rem = 0
				continue
			}
			claims++
			b := st.bank
			take := chunk
			if take > st.rem {
				take = st.rem
			}
			if take > free[b] {
				take = free[b]
			}
			st.held += take
			free[b] -= take
			st.rem -= take
			if st.rem <= 1e-9 {
				recs = st.flush(recs, v)
				continue
			}
			live[k] = v
			k++
		}
		live = live[:k]
	}
	ar.claimCount += claims
	ar.gLive = live
	ar.recs = recs
	assign.build(&ar.build, nb, recs)
	return assign
}

// greedyVC is one VC's claim state: bank is its current candidate bank, ok
// turns false once its preference order is exhausted, held is the
// capacity claimed in bank and not yet recorded, and rem the demand still
// to place.
type greedyVC struct {
	held, rem float64
	bank      int32
	ok        bool
}

// flush records VC v's held claim in recs. A VC never returns to a bank it
// left, so each (VC, bank) pair is recorded at most once, and the recorded
// value is exactly what adding the claim to an empty slot gives.
func (st *greedyVC) flush(recs []bankRec, v int) []bankRec {
	if st.held > 0 {
		recs = append(recs, bankRec{int32(v), st.bank, st.held})
		st.held = 0
	}
	return recs
}

// greedyCursor walks one VC's bank preference order: its sorted order when
// set, otherwise its ring.
type greedyCursor struct {
	ring  mesh.RingCursor
	order []mesh.Tile
}

// seek advances st to the first bank, from its current one on, with free
// space.
func (g *greedyCursor) seek(st *greedyVC, free []float64) {
	for st.ok && free[st.bank] <= 1e-9 {
		var b mesh.Tile
		if g.order == nil {
			b, st.ok = g.ring.Next()
		} else if st.ok = len(g.order) > 0; st.ok {
			b, g.order = g.order[0], g.order[1:]
		}
		st.bank = int32(b)
	}
}
