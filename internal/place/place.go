// Package place implements thread and data (virtual-cache) placement on a
// tiled CMP: the paper's optimistic contention-aware VC placement (§IV-D),
// center-of-mass thread placement (§IV-E), greedy closest-first data
// placement and the bounded-spiral trading pass (§IV-F), plus the expensive
// comparators evaluated in §VI-C (exact transportation solve standing in for
// ILP, simulated annealing, and recursive-bisection graph partitioning).
//
// Representation: a VC's allocation (BankAlloc) is the sorted list of the
// banks it touches with their lines alongside, one form at every chip size,
// so its memory follows the VC's footprint rather than the bank count.
// Per-bank state shared by all VCs (free space, residents, distances) lives
// in flat arrays indexed by bank id in the Arena. Every order-sensitive
// floating-point reduction walks banks in ascending id order and accessor
// threads in ascending thread-id order — deterministic by construction, with
// no sorting on any read path. The previous map-based representation paid
// for the same determinism by sorting map keys on every reduction.
package place

import (
	"fmt"
	"slices"

	"cdcs/internal/mesh"
)

// Chip is the placement substrate: a mesh of tiles, each with one core and
// one LLC bank of BankLines lines.
type Chip struct {
	Topo      *mesh.Topology
	BankLines float64
	// BankCap optionally overrides per-bank capacity (indexed by bank id);
	// nil means every bank holds BankLines. The hierarchical path uses it to
	// present a cluster-granularity chip whose "banks" are whole clusters of
	// differing size (ragged edge clusters hold fewer tiles).
	BankCap []float64
}

// Banks returns the number of banks (== tiles).
func (c Chip) Banks() int { return c.Topo.Tiles() }

// CapOf returns bank b's capacity in lines.
func (c Chip) CapOf(b mesh.Tile) float64 {
	if c.BankCap != nil {
		return c.BankCap[b]
	}
	return c.BankLines
}

// TotalLines returns chip-wide LLC capacity in lines.
func (c Chip) TotalLines() float64 {
	if c.BankCap != nil {
		s := 0.0
		for _, v := range c.BankCap {
			s += v
		}
		return s
	}
	return float64(c.Banks()) * c.BankLines
}

// Demand describes one VC to the placement algorithms. Accessors are stored
// densely, sorted by thread id at construction, so reductions over them are
// linear walks with no per-call sorting or allocation.
type Demand struct {
	// Size is the VC's capacity allocation in lines (from internal/alloc).
	Size float64
	// Threads lists the accessor thread ids in ascending order.
	Threads []int
	// Rates[i] is Threads[i]'s access rate into this VC (any consistent
	// unit; APKI throughout this repo).
	Rates []float64
}

// TotalRate sums accessor rates (in thread-id order, for bit-reproducible
// results) without allocating.
func (d Demand) TotalRate() float64 {
	s := 0.0
	for _, r := range d.Rates {
		s += r
	}
	return s
}

// BankAlloc is one VC's per-bank allocation: the banks it has touched, in
// ascending id order, with their lines in a parallel slice. A VC's footprint
// spans a handful of banks whatever the chip size, so one representation
// serves every mesh from 2×2 to 128×128 in O(footprint) memory, and
// iteration over Banks() is a linear walk in ascending bank order.
//
// Get, Add and Set binary-search the sorted index; a bank above the highest
// touched one is absent, or appended, without a search. The placement hot
// paths do not search per operation: greedy placement adds a VC's claim on
// a bank once, as its cursor moves on, and the trade pass reads the VC it
// refines from a per-arena snapshot and its trade partners from the banks'
// resident lists (see RefineIn).
//
// A touched bank stays in the index even when arithmetic drives its lines
// back to exactly zero, mirroring the key semantics of the map
// representation this replaced (trade passes leave zero-line entries
// behind); reductions are unaffected because zero entries contribute
// exactly 0.0 to every sum.
type BankAlloc struct {
	banks []mesh.Tile // touched banks in ascending id order
	vals  []float64   // vals[i] is banks[i]'s lines
}

// reset empties the alloc while keeping its capacity.
func (a *BankAlloc) reset() {
	a.banks = a.banks[:0]
	a.vals = a.vals[:0]
}

// find returns b's position in the index and whether it is present; when
// absent, the position is where b would be inserted.
func (a *BankAlloc) find(b mesh.Tile) (int, bool) {
	if n := len(a.banks); n == 0 || a.banks[n-1] < b {
		return n, false
	}
	return slices.BinarySearch(a.banks, b)
}

// Get returns the lines held in bank b (zero when the bank was never
// written).
func (a *BankAlloc) Get(b mesh.Tile) float64 {
	if i, ok := a.find(b); ok {
		return a.vals[i]
	}
	return 0
}

// slot returns b's position in the index, inserting a zero entry if absent.
func (a *BankAlloc) slot(b mesh.Tile) int {
	i, ok := a.find(b)
	if !ok {
		a.banks = slices.Insert(a.banks, i, b)
		a.vals = slices.Insert(a.vals, i, 0)
	}
	return i
}

// Add adds delta lines to bank b (negative deltas remove capacity) and
// returns the bank's new lines. The bank stays in the iteration index even
// if its lines reach zero.
func (a *BankAlloc) Add(b mesh.Tile, delta float64) float64 {
	i := a.slot(b)
	a.vals[i] += delta
	return a.vals[i]
}

// Set sets bank b's lines.
func (a *BankAlloc) Set(b mesh.Tile, v float64) { a.vals[a.slot(b)] = v }

// Banks returns the touched banks in ascending id order. The slice is shared
// with the BankAlloc; callers must not modify it.
func (a *BankAlloc) Banks() []mesh.Tile { return a.banks }

// Len returns the number of touched banks.
func (a *BankAlloc) Len() int { return len(a.banks) }

// At returns the i'th touched bank (ascending id order) and its lines: the
// iteration primitive for reductions.
func (a *BankAlloc) At(i int) (mesh.Tile, float64) { return a.banks[i], a.vals[i] }

// clone returns an independent deep copy.
func (a *BankAlloc) clone() BankAlloc {
	return BankAlloc{banks: slices.Clone(a.banks), vals: slices.Clone(a.vals)}
}

// Assignment is a data placement: per VC, lines claimed in each bank.
type Assignment []BankAlloc

// NewAssignment allocates an empty assignment for n VCs.
func NewAssignment(n int) Assignment { return make(Assignment, n) }

// Placed returns the total lines VC v has placed (summed in bank order, for
// bit-reproducible results).
func (a Assignment) Placed(v int) float64 {
	al := &a[v]
	s := 0.0
	for i := 0; i < al.Len(); i++ {
		_, l := al.At(i)
		s += l
	}
	return s
}

// BankUsageInto accumulates per-bank occupied lines into use (which must be
// zeroed and sized to the bank count) and returns it.
func (a Assignment) BankUsageInto(use []float64) []float64 {
	for v := range a {
		al := &a[v]
		for i := 0; i < al.Len(); i++ {
			b, l := al.At(i)
			use[b] += l
		}
	}
	return use
}

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for i := range a {
		out[i] = a[i].clone()
	}
	return out
}

// Validate checks capacity feasibility and per-VC size consistency within
// tol lines; it returns the first violation found.
func (a Assignment) Validate(chip Chip, demands []Demand, tol float64) error {
	if len(a) != len(demands) {
		return fmt.Errorf("place: %d assignments for %d demands", len(a), len(demands))
	}
	use := a.BankUsageInto(make([]float64, chip.Banks()))
	for b, u := range use {
		if u > chip.CapOf(mesh.Tile(b))+tol {
			return fmt.Errorf("place: bank %d over capacity: %g > %g", b, u, chip.CapOf(mesh.Tile(b)))
		}
	}
	for v := range a {
		al := &a[v]
		for i := 0; i < al.Len(); i++ {
			b, l := al.At(i)
			if l < -tol {
				return fmt.Errorf("place: VC %d negative allocation %g in bank %d", v, l, b)
			}
			if int(b) < 0 || int(b) >= chip.Banks() {
				return fmt.Errorf("place: VC %d uses invalid bank %d", v, b)
			}
		}
		if placed, want := a.Placed(v), demands[v].Size; placed < want-tol || placed > want+tol {
			return fmt.Errorf("place: VC %d placed %g lines, want %g", v, placed, want)
		}
	}
	return nil
}

// VCDistancesIn returns D(vc, bank): the access-weighted mean distance from
// the VC's accessor threads to each bank (the distance the trade pass and
// Eq. 2 use). VCs with no accessors measure from the chip center. The rows
// come from ar and are valid only until its next placement call; a nil ar
// uses a fresh arena.
func VCDistancesIn(ar *Arena, chip Chip, demands []Demand, threadCore []mesh.Tile) [][]float64 {
	if ar == nil {
		ar = NewArena()
	}
	n := chip.Banks()
	flat := grow(&ar.distFlat, len(demands)*n)
	rows := grow(&ar.dist, len(demands))
	for v := range demands {
		row := flat[v*n : (v+1)*n : (v+1)*n]
		rows[v] = row
		fillDistanceRow(row, chip, &demands[v], threadCore)
	}
	return rows
}

// fillDistanceRow sets the zeroed row to D(d, b) for every bank b.
func fillDistanceRow(row []float64, chip Chip, d *Demand, threadCore []mesh.Tile) {
	total := d.TotalRate()
	if total == 0 {
		addDistanceRow(row, chip.Topo, chip.Topo.CenterTile(), 1, 1)
		return
	}
	// Accumulate per bank in ascending accessor order (t outer keeps the
	// per-slot addition order identical to the per-bank inner loop the map
	// representation used). The last accessor's pass folds in the division
	// by total; dividing the others by 1 is exact.
	for i, t := range d.Threads {
		div := 1.0
		if i == len(d.Threads)-1 {
			div = total
		}
		addDistanceRow(row, chip.Topo, threadCore[t], d.Rates[i], div)
	}
}

// addDistanceRow sets row[b] = (row[b] + rate·D(a, b)) / div for every bank
// b, with hop counts from coordinate arithmetic in row-major bank order.
func addDistanceRow(row []float64, topo *mesh.Topology, a mesh.Tile, rate, div float64) {
	w := topo.Width()
	ax, ay := topo.Coords(a)
	for y := 0; y*w < len(row); y++ {
		dy := abs(y - ay)
		r := row[y*w : y*w+w]
		for x := range r {
			r[x] = (r[x] + rate*float64(abs(x-ax)+dy)) / div
		}
	}
}

// OnChipLatency evaluates Eq. 2 in access·hops: for every thread and bank,
// accesses spread in proportion to the VC's per-bank capacity share times
// the thread-to-bank distance. Scale by hop latency externally.
func OnChipLatency(chip Chip, demands []Demand, assign Assignment, threadCore []mesh.Tile) float64 {
	total := 0.0
	for v := range demands {
		d := &demands[v]
		size := assign.Placed(v)
		if size <= 0 {
			continue
		}
		av := &assign[v]
		for i := 0; i < av.Len(); i++ {
			b, l := av.At(i)
			frac := l / size
			for j, t := range d.Threads {
				total += d.Rates[j] * frac * float64(chip.Topo.Distance(b, threadCore[t]))
			}
		}
	}
	return total
}

// CenterOfMass returns the fractional-coordinate center of mass of a VC's
// placed capacity (chip center when nothing is placed), accumulating in
// ascending bank order without allocating.
func CenterOfMass(chip Chip, alloc *BankAlloc) (x, y float64) {
	var wx, wy, wsum float64
	for i := 0; i < alloc.Len(); i++ {
		b, w := alloc.At(i)
		tx, ty := chip.Topo.Coords(b)
		wx += w * float64(tx)
		wy += w * float64(ty)
		wsum += w
	}
	if wsum == 0 {
		cx, cy := chip.Topo.Coords(chip.Topo.CenterTile())
		return float64(cx), float64(cy)
	}
	return wx / wsum, wy / wsum
}

// orderBySizeIn returns VC indices sorted by descending demand size with
// deterministic index tie-break, skipping zero-size VCs. The slice is arena
// scratch.
func orderBySizeIn(ar *Arena, demands []Demand) []int {
	idx := grow(&ar.order, len(demands))[:0]
	for i := range demands {
		if demands[i].Size > 0 {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		if demands[a].Size != demands[b].Size {
			if demands[a].Size > demands[b].Size {
				return -1
			}
			return 1
		}
		return a - b
	})
	ar.order = idx
	return idx
}
