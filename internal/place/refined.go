package place

import (
	"slices"

	"cdcs/internal/mesh"
)

// desirable is one candidate target bank in a VC's trade spiral.
type desirable struct {
	bank mesh.Tile
	d    float64
}

// RefineIn performs the paper's refined VC placement (§IV-F, Fig. 8): starting
// from a greedy placement, each VC spirals outward from its center of mass
// looking at its own data; banks where the VC could hold more data are
// "desirable"; data sitting farther out is offered in trades against VCs
// occupying closer desirable banks. A trade executes only when the summed
// latency change (weighted by each VC's accesses per byte) is negative, so
// total on-chip latency is non-increasing. Each VC trades once, in index
// order — the paper found one pass discovers most beneficial trades.
//
// The assignment is modified in place; RefineIn reports the number of
// executed trades and the total Eq. 2 latency change (≤ 0). Scratch comes
// from ar (nil: a fresh arena).
func RefineIn(ar *Arena, chip Chip, demands []Demand, assign Assignment, threadCore []mesh.Tile) (trades int, delta float64) {
	if ar == nil {
		ar = NewArena()
	}
	dist := newVCDist(ar, chip, demands, threadCore)
	used := assign.BankUsageInto(grow(&ar.used, chip.Banks()))

	// accPerLine[v] = accesses per line of allocated capacity: the weight
	// that converts moved capacity into latency change.
	accPerLine := grow(&ar.accPerLine, len(demands))
	for v := range demands {
		if size := assign.Placed(v); size > 0 {
			accPerLine[v] = demands[v].TotalRate() / size
		}
	}
	// residents[b] lists VCs with data in bank b (kept fresh lazily).
	residents := growResidents(&ar.residents, chip.Banks())
	for v := range assign {
		av := &assign[v]
		for i := 0; i < av.Len(); i++ {
			if b, l := av.At(i); l > 1e-9 {
				residents[b] = append(residents[b], v)
			}
		}
	}

	for v := range demands {
		if demands[v].Size <= 0 || accPerLine[v] == 0 {
			continue
		}
		size := assign.Placed(v)
		if size <= 1e-9 {
			continue
		}
		av := &assign[v]
		// Spiral from the VC's preferred location: the rate-weighted center
		// of its accessor threads. (The paper spirals from the VC's center
		// of mass; after greedy placement both coincide, but the accessor
		// center also handles degenerate starts where all data is remote.)
		com := preferredCenter(ar, chip, &demands[v], av, threadCore)

		desirables := ar.desirables[:0]
		seen := 0.0

		// The spiral is data-bounded (it breaks once all of v's data has
		// been seen), so it needs no candidate pruning at scale. Capping its
		// reach was evaluated for kilo-tile meshes and rejected: the
		// long-distance trades it would cut are precisely what recovers
		// latency when greedy scatters late VCs far out (a 4-footprint cap
		// cost CDCS ~5% WS at 1024 tiles on ext-scaling).
		cur := chip.Topo.RingFrom(com)
		for {
			b, ok := cur.Next()
			if !ok {
				break
			}
			have := av.Get(b)
			dvb := dist.at(v, b)
			if have < chip.CapOf(b)-1e-9 {
				desirables = append(desirables, desirable{b, dvb})
			}
			if have <= 1e-9 {
				continue
			}
			seen += have
			// Try to move v's data in b into closer desirable banks.
			slices.SortStableFunc(desirables, func(x, y desirable) int {
				if x.d != y.d {
					if x.d < y.d {
						return -1
					}
					return 1
				}
				return int(x.bank) - int(y.bank)
			})
			for _, cand := range desirables {
				if av.Get(b) <= 1e-9 {
					break
				}
				if cand.d >= dvb-1e-12 {
					break // sorted: no closer candidates remain
				}
				moveGain := accPerLine[v] * (cand.d - dvb) // < 0

				// Free space first: a move into unclaimed capacity has no
				// counterparty and always helps.
				if room := chip.CapOf(cand.bank) - used[cand.bank]; room > 1e-9 {
					m := minF(av.Get(b), room)
					moveCapacity(assign, used, residents, v, b, cand.bank, m)
					trades++
					delta += moveGain * m
					if av.Get(b) <= 1e-9 {
						continue
					}
				}
				// Offer trades to resident VCs.
				for _, u := range residents[cand.bank] {
					if u == v || assign[u].Get(cand.bank) <= 1e-9 {
						continue
					}
					if av.Get(b) <= 1e-9 {
						break
					}
					gainU := accPerLine[u] * (dist.at(u, b) - dist.at(u, cand.bank))
					if moveGain+gainU >= -1e-12 {
						continue
					}
					m := minF(av.Get(b), assign[u].Get(cand.bank))
					// Swap m lines: v moves b→cand, u moves cand→b.
					av.Add(b, -m)
					av.Add(cand.bank, m)
					assign[u].Add(cand.bank, -m)
					assign[u].Add(b, m)
					addResident(residents, cand.bank, v)
					addResident(residents, b, u)
					trades++
					delta += (moveGain + gainU) * m
				}
			}
			if seen >= size-1e-9 {
				break // the spiral has seen all of v's data
			}
		}
		ar.desirables = desirables
	}
	dist.release(ar)
	return trades, delta
}

// vcDist serves D(v, b), VCDistancesIn's row entries, on demand: the trade
// pass reads only the banks on each VC's spiral and the banks its trade
// partners occupy, so it skips VCDistancesIn's O(VCs × banks) rows. A VC
// with one accessor, or none (the chip-center convention), has a single
// term and evaluates it per query; a multi-accessor VC fills its row on
// first use and reads it after. Both follow addDistanceRow's sequence of
// operations, (r + rate·D)/div per accessor in thread order, so every value
// is bit-identical to VCDistancesIn's.
type vcDist struct {
	chip       Chip
	demands    []Demand
	threadCore []mesh.Tile
	srcs       []distSrc
	rows       []float64 // cached multi-accessor rows, row i at [i·banks, (i+1)·banks)
}

// distSrc is how vcDist evaluates one VC's distances.
type distSrc struct {
	multi     bool
	row       int     // multi: index of the cached row, or -1 before first use
	ax, ay    int     // single term: source tile coordinates
	rate, div float64 // single term: D(v, b) = (0 + rate·D(a, b)) / div
}

// newVCDist prepares on-demand distances with scratch from ar; hand the
// rows back with release once the pass is done.
func newVCDist(ar *Arena, chip Chip, demands []Demand, threadCore []mesh.Tile) vcDist {
	srcs := grow(&ar.distSrcs, len(demands))
	for v := range demands {
		d := &demands[v]
		s := &srcs[v]
		total := d.TotalRate()
		switch {
		case total == 0:
			s.ax, s.ay = chip.Topo.Coords(chip.Topo.CenterTile())
			s.rate, s.div = 1, 1
		case len(d.Threads) == 1:
			s.ax, s.ay = chip.Topo.Coords(threadCore[d.Threads[0]])
			s.rate, s.div = d.Rates[0], total
		default:
			s.multi, s.row = true, -1
		}
	}
	return vcDist{chip: chip, demands: demands, threadCore: threadCore, srcs: srcs, rows: ar.distFlat[:0]}
}

// at returns D(v, b).
func (vd *vcDist) at(v int, b mesh.Tile) float64 {
	s := &vd.srcs[v]
	if !s.multi {
		bx, by := vd.chip.Topo.Coords(b)
		return (0 + s.rate*float64(abs(bx-s.ax)+abs(by-s.ay))) / s.div
	}
	n := vd.chip.Banks()
	if s.row < 0 {
		s.row = len(vd.rows) / n
		vd.rows = append(vd.rows, make([]float64, n)...)
		fillDistanceRow(vd.rows[s.row*n:(s.row+1)*n], vd.chip, &vd.demands[v], vd.threadCore)
	}
	return vd.rows[s.row*n+int(b)]
}

// release returns the row storage, possibly grown, to ar for reuse.
func (vd *vcDist) release(ar *Arena) { ar.distFlat = vd.rows[:0] }

// RefineRounds runs the trade pass repeatedly (the paper trades once per VC
// per reconfiguration, having found empirically that one pass discovers most
// trades; this wrapper exists to reproduce that ablation). Returns total
// trades and latency change, stopping early once a round finds nothing.
func RefineRounds(chip Chip, demands []Demand, assign Assignment, threadCore []mesh.Tile, rounds int) (trades int, delta float64) {
	ar := NewArena()
	for r := 0; r < rounds; r++ {
		tr, d := RefineIn(ar, chip, demands, assign, threadCore)
		trades += tr
		delta += d
		if tr == 0 {
			break
		}
	}
	return trades, delta
}

// preferredCenter returns the tile a VC's data would ideally cluster around:
// the rate-weighted center of its accessors, falling back to the data's own
// center of mass for accessorless VCs. Tile weights accumulate in a dense
// scratch array (only the touched tiles are reset), and the center-of-mass
// walk visits touched tiles in ascending id order — the same order the
// previous map-keyed reduction sorted into.
func preferredCenter(ar *Arena, chip Chip, d *Demand, alloc *BankAlloc, threadCore []mesh.Tile) mesh.Tile {
	if d.TotalRate() > 0 {
		w := ensure(&ar.tileW, chip.Banks())
		for _, t := range d.Threads {
			w[threadCore[t]] = 0
		}
		for i, t := range d.Threads {
			w[threadCore[t]] += d.Rates[i]
		}
		ts := ensure(&ar.pcTiles, len(d.Threads))[:0]
		for _, t := range d.Threads {
			ts = append(ts, threadCore[t])
		}
		slices.Sort(ts)
		ar.pcTiles = ts
		var wx, wy, wsum float64
		prev := mesh.Tile(-1)
		for _, tile := range ts {
			if tile == prev {
				continue
			}
			prev = tile
			wt := w[tile]
			tx, ty := chip.Topo.Coords(tile)
			wx += wt * float64(tx)
			wy += wt * float64(ty)
			wsum += wt
		}
		if wsum == 0 {
			cx, cy := chip.Topo.Coords(chip.Topo.CenterTile())
			return chip.Topo.NearestTile(float64(cx), float64(cy))
		}
		return chip.Topo.NearestTile(wx/wsum, wy/wsum)
	}
	x, y := CenterOfMass(chip, alloc)
	return chip.Topo.NearestTile(x, y)
}

// moveCapacity moves m lines of VC v from bank b to free space in bank nb.
func moveCapacity(assign Assignment, used []float64, residents [][]int, v int, b, nb mesh.Tile, m float64) {
	assign[v].Add(b, -m)
	assign[v].Add(nb, m)
	used[b] -= m
	used[nb] += m
	addResident(residents, nb, v)
}

// addResident registers VC v in bank b's resident list if absent.
func addResident(residents [][]int, b mesh.Tile, v int) {
	for _, u := range residents[b] {
		if u == v {
			return
		}
	}
	residents[b] = append(residents[b], v)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
