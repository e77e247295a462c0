package place

import (
	"math"
	"slices"

	"cdcs/internal/mesh"
)

// desirable is one candidate target bank in a VC's trade spiral, with its
// coordinates.
type desirable struct {
	bank mesh.Tile
	d    float64
	x, y int32
}

// cmpDesirable orders candidates by distance, then bank id. Banks on one
// spiral are distinct, so this is a total order.
func cmpDesirable(x, y desirable) int {
	if x.d != y.d {
		if x.d < y.d {
			return -1
		}
		return 1
	}
	return int(x.bank) - int(y.bank)
}

// insertDesirable inserts x into ds, sorted under cmpDesirable, at its
// binary-search position. The comparator is a total order, so the list is
// exactly the one a stable sort of the unsorted candidates would build. A
// single-accessor VC spiralling from its own core meets banks in
// non-decreasing distance with ascending-id ties, so x then always sorts
// last and is appended.
func insertDesirable(ds []desirable, x desirable) []desirable {
	if n := len(ds); n == 0 || cmpDesirable(ds[n-1], x) < 0 {
		return append(ds, x)
	}
	i, _ := slices.BinarySearchFunc(ds, x, cmpDesirable)
	return slices.Insert(ds, i, x)
}

// RefineWork counts the trade pass's work. The counts are deterministic
// (they do not drift with the host the way time does), so a regression in
// how much the pass visits shows even when timing noise hides it.
type RefineWork struct {
	// Spiral is the number of banks the VCs' spirals visited.
	Spiral int
	// Inserted is the number of desirable banks inserted into the sorted
	// candidate lists.
	Inserted int
	// Tried is the number of moves evaluated: free-space moves plus trades
	// offered to resident VCs.
	Tried int
}

func (w *RefineWork) add(o RefineWork) {
	w.Spiral += o.Spiral
	w.Inserted += o.Inserted
	w.Tried += o.Tried
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
// executed trades and the total Eq. 2 latency change (≤ 0), and adds the
// pass's work counts to ar (see Arena.RefineWork). Scratch comes from ar
// (nil: a fresh arena).
func RefineIn(ar *Arena, chip Chip, demands []Demand, assign Assignment, threadCore []mesh.Tile) (trades int, delta float64) {
	if ar == nil {
		ar = NewArena()
	}
	dist := newVCDist(ar, chip, demands, threadCore)

	// accPerLine[v] = accesses per line of allocated capacity: the weight
	// that converts moved capacity into latency change.
	accPerLine := grow(&ar.accPerLine, len(demands))
	for v := range demands {
		if size := assign.Placed(v); size > 0 {
			accPerLine[v] = demands[v].TotalRate() / size
		}
	}
	// banks[b] holds bank b's lines in use and its resident list: the VCs
	// with data there (kept fresh lazily: an entry stays when its lines
	// drain), mirroring their lines beside their distance to b.
	banks := newTradeBanks(ar, assign, chip.Banks())
	for v := range assign {
		av := &assign[v]
		for i := 0; i < av.Len(); i++ {
			if b, l := av.At(i); l > 1e-9 {
				banks[b].add(resident{int32(v), l, dist.at(v, b)}, accPerLine[v])
			}
		}
	}

	// banks[b].mine snapshots VC v's lines in bank b as v's turn starts,
	// tagged v+1 (any other tag means none). The spiral reads each bank
	// once, and before v moves lines into or out of it: moves go from the
	// bank being visited to banks visited earlier. So the snapshot is what
	// av.Get would return there, without the search.
	// dub[u] caches D(u, b) for the data bank b whose lines are on offer:
	// every trade offered to u from b needs it. It is valid while
	// dubStep[u] equals offer, which counts data banks from 1.
	dub := ensure(&ar.dub, len(demands))
	dubStep := grow(&ar.dubStep, len(demands))
	offer := 0
	var work RefineWork
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
		tag := int32(v + 1)
		for i := 0; i < av.Len(); i++ {
			b, l := av.At(i)
			banks[b].tag, banks[b].mine = tag, l
		}
		// A single-accessor VC spirals from its own core, so D(v, b) is a
		// function of the ring distance: computed once per ring.
		comX, comY := chip.Topo.Coords(com)
		onRing := dist.singleFrom(v, comX, comY)
		ring, dvb := -1, 0.0

		// desirables stays sorted by (d, bank) as the spiral grows it.
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
			work.Spiral++
			bk := &banks[b]
			have := 0.0
			if bk.tag == tag {
				have = bk.mine
			}
			if !onRing {
				dvb = dist.at(v, b)
			} else if h := cur.Dist(); h != ring {
				ring, dvb = h, dist.srcs[v].term(h)
			}
			x, y := cur.Coords()
			if have < chip.CapOf(b)-1e-9 {
				desirables = insertDesirable(desirables, desirable{b, dvb, int32(x), int32(y)})
				work.Inserted++
			}
			if have <= 1e-9 {
				continue
			}
			seen += have
			offer++
			bx, by := x, y
			// Try to move v's data in b into closer desirable banks. left
			// mirrors av.Get(b) through every move below.
			left := have
			for _, cand := range desirables {
				if left <= 1e-9 {
					break
				}
				if cand.d >= dvb-1e-12 {
					break // sorted: no closer candidates remain
				}
				moveGain := accPerLine[v] * (cand.d - dvb) // < 0

				// Free space first: a move into unclaimed capacity has no
				// counterparty and always helps.
				cb := &banks[cand.bank]
				if room := chip.CapOf(cand.bank) - cb.used; room > 1e-9 {
					work.Tried++
					m := minF(left, room)
					shift(assign, banks, v, b, cand.bank, m, cand.d, accPerLine[v])
					bk.used -= m
					cb.used += m
					left -= m
					trades++
					delta += moveGain * m
					if left <= 1e-9 {
						continue
					}
				}
				// Offer trades to resident VCs (those present when the offers
				// start: v joins the list as it trades in). Each entry carries
				// u's distance to cand.bank, so an offer computes only D(u, b),
				// once per data bank. Offers that the loss floor proves cannot
				// gain are not made, and neither is any offer to a bank whose
				// floor covers all its residents.
				rs := cb.list
				if len(rs) == 0 {
					continue
				}
				h := float64(abs(bx-int(cand.x)) + abs(by-int(cand.y)))
				gain := -moveGain
				if cannotGain(cb.wmin*h-2*cb.wdmax, cb.wmin*h+2*cb.wdmax, gain) {
					continue
				}
				for i, n := 0, len(rs); i < n && left > 1e-9; i++ {
					r := &rs[i]
					u := int(r.vc)
					if r.lines <= 1e-9 || u == v {
						continue
					}
					wu := accPerLine[u]
					if cannotGain(wu*(h-2*r.d), wu*(h+2*r.d), gain) {
						continue
					}
					work.Tried++
					if dubStep[u] != offer {
						dubStep[u], dub[u] = offer, dist.atXY(u, b, bx, by)
					}
					gainU := wu * (dub[u] - r.d)
					if moveGain+gainU >= -1e-12 {
						continue
					}
					m := minF(left, r.lines)
					// Swap m lines: v moves b→cand, u moves cand→b. Both
					// shifts may append to a resident list, so rs is
					// reloaded (v joins cand.bank's list past n).
					shift(assign, banks, v, b, cand.bank, m, cand.d, accPerLine[v])
					shift(assign, banks, u, cand.bank, b, m, dub[u], wu)
					rs = cb.list
					left -= m
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
	ar.refineWork.add(work)
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
	x, y := vd.chip.Topo.Coords(b)
	return vd.atXY(v, b, x, y)
}

// atXY returns D(v, b) for the bank b at (x, y).
func (vd *vcDist) atXY(v int, b mesh.Tile, x, y int) float64 {
	if s := &vd.srcs[v]; !s.multi {
		return s.term(abs(x-s.ax) + abs(y-s.ay))
	}
	return vd.row(v)[b]
}

// row returns multi-accessor VC v's distance row, filling it on first use.
func (vd *vcDist) row(v int) []float64 {
	s := &vd.srcs[v]
	n := vd.chip.Banks()
	if s.row < 0 {
		s.row = len(vd.rows) / n
		vd.rows = append(vd.rows, make([]float64, n)...)
		fillDistanceRow(vd.rows[s.row*n:(s.row+1)*n], vd.chip, &vd.demands[v], vd.threadCore)
	}
	return vd.rows[s.row*n : (s.row+1)*n]
}

// singleFrom reports whether v has a single distance term measured from the
// tile at (x, y).
func (vd *vcDist) singleFrom(v, x, y int) bool {
	s := &vd.srcs[v]
	return !s.multi && s.ax == x && s.ay == y
}

// term returns a single-term VC's distance to a bank hops away from its
// source tile.
func (s *distSrc) term(hops int) float64 { return (0 + s.rate*float64(hops)) / s.div }

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

// resident is one VC's entry in a bank's resident list. lines mirrors
// assign[vc].Get(bank), so offering a trade reads the counterparty's
// holding without a lookup; d is D(vc, bank), fixed for the pass, so an
// offer computes only D(vc, b) for the bank b on offer.
type resident struct {
	vc    int32
	lines float64
	d     float64
}

// tradeBank is the trade pass's state of one bank, kept in one 64-byte
// record so the spiral and the offers find a bank's state together rather
// than in four arrays.
type tradeBank struct {
	tag  int32   // v+1 while mine holds VC v's snapshot
	mine float64 // VC v's lines here as its turn started
	used float64 // lines all VCs hold here
	// wmin and wdmax bound every entry list has held: the least accesses
	// per line, and the largest product of accesses per line and distance.
	// An entry that drains stays counted, so the bank's floor (see
	// cannotGain) can only be lower than that of its live residents.
	wmin, wdmax float64
	list        []resident
}

// newTradeBanks returns n reset banks from ar, with every bank's lines in
// use summed (in the order BankUsageInto sums them) and its list's
// capacity reserved for assign's entries there.
func newTradeBanks(ar *Arena, assign Assignment, n int) []tradeBank {
	banks := ensure(&ar.tradeBanks, n)
	count := grow(&ar.resCount, n)
	for i := range banks {
		banks[i] = tradeBank{wmin: math.Inf(1), list: banks[i].list[:0]}
	}
	for v := range assign {
		av := &assign[v]
		for i := 0; i < av.Len(); i++ {
			b, l := av.At(i)
			banks[b].used += l
			if l > 1e-9 {
				count[b]++
			}
		}
	}
	reserveLists(count, func(b int) *[]resident { return &banks[b].list })
	return banks
}

// add appends r, whose VC has w accesses per line, to the bank's list.
func (tb *tradeBank) add(r resident, w float64) {
	tb.list = append(tb.list, r)
	tb.wmin = min(tb.wmin, w)
	tb.wdmax = max(tb.wdmax, w*r.d)
}

// shift moves m lines of VC v from bank b to bank nb, registers v in nb's
// resident list if absent (dnb is D(v, nb), w v's accesses per line), and
// brings v's entries in both lists up to date.
func shift(assign Assignment, banks []tradeBank, v int, b, nb mesh.Tile, m, dnb, w float64) {
	mirror(banks[b].list, v, assign[v].Add(b, -m))
	if l := assign[v].Add(nb, m); !mirror(banks[nb].list, v, l) {
		banks[nb].add(resident{int32(v), l, dnb}, w)
	}
}

// cannotGain reports whether an offer of gain (v's latency saving, > 0)
// to a partner u that must lose at least floor is sure to be refused. D(u,
// ·) is an access-weighted mean of hop counts, and hop counts obey the
// triangle inequality, so D(u, b) ≥ H(b, c) - D(u, c) for the data bank b,
// the candidate c and their distance H: taking m lines from c to b costs u
// at least w·(H - 2·D(u, c)) per line. When that floor beats the gain, the
// exact check finds moveGain + gainU ≥ 0 and refuses the trade. The slack,
// a millionth of mag (the size of the terms in floor) and of the gain,
// stays far above the rounding of the D values, so the floor never refuses
// an offer the exact check would accept.
func cannotGain(floor, mag, gain float64) bool { return floor >= gain+1e-6*(mag+gain)+1e-9 }

// mirror sets v's lines in the resident list and reports whether v has an
// entry there.
func mirror(rs []resident, v int, lines float64) bool {
	for i := range rs {
		if int(rs[i].vc) == v {
			rs[i].lines = lines
			return true
		}
	}
	return false
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
