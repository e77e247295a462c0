package place

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"cdcs/internal/mesh"
)

// HierarchyThreshold is the bank count above which placement dispatches
// through the two-level hierarchical path (internal/core does the dispatch).
// At or below the threshold — which covers every configuration up through the
// 64×64 ext-scaling point — the hierarchical functions are never invoked, so
// placement stays bit-identical to the flat pipeline by construction; the
// golden corpus enforces that. Above it, the flat pipeline's remaining
// O(banks²) work (per-VC distance rows, full-mesh candidate scans) would
// dominate, so placement runs over the mesh's cluster view instead: the exact
// scans of the paper applied to at most DefaultMaxClusters super-tiles, then
// refined independently within each cluster.
const HierarchyThreshold = 4096

// hierWorkers overrides the interior-refinement worker count when positive.
// Tests use it to prove placements are identical for any worker count.
var hierWorkers = 0

// Hierarchical reports whether chip is large enough that placement dispatches
// through the hierarchical path.
func Hierarchical(chip Chip) bool { return chip.Banks() > HierarchyThreshold }

// coarseChipIn builds the cluster-granularity chip: one "bank" per cluster
// whose capacity is the cluster's total fine capacity (ragged edge clusters
// hold fewer tiles, hence less).
func coarseChipIn(ar *Arena, chip Chip, cl *mesh.Clusters) Chip {
	caps := grow(&ar.hCaps, cl.N())
	for c := range caps {
		caps[c] = float64(cl.Count(mesh.Tile(c))) * chip.BankLines
	}
	return Chip{Topo: cl.Coarse(), BankLines: chip.BankLines, BankCap: caps}
}

// HierOptimisticPlaceIn is the hierarchical form of OptimisticPlaceIn: the
// optimistic contention-aware search (§IV-D) runs exhaustively over the
// coarse cluster mesh — the same machinery, one level up — and each VC's
// coarse claims land on the claiming cluster's representative tile, which is
// all thread placement needs (it only consumes the claims' centers of mass).
func HierOptimisticPlaceIn(ar *Arena, chip Chip, demands []Demand) Optimistic {
	if ar == nil {
		ar = NewArena()
	}
	cl := chip.Topo.Clusters()
	copt := OptimisticPlaceIn(ar.coarse(), coarseChipIn(ar, chip, cl), demands)

	out := Optimistic{
		Center: grow(&ar.centers, len(demands)),
		Claims: arenaAssignment(&ar.claims, len(demands)),
		CoM:    grow(&ar.com, len(demands)),
	}
	// Each VC's coarse claims name distinct clusters, so their
	// representative tiles are distinct: build the claims from records.
	total := 0
	for v := range demands {
		total += copt.Claims[v].Len()
	}
	recs := ensure(&ar.recs, total)[:0]
	for v := range demands {
		out.Center[v] = cl.Rep(copt.Center[v])
		cv := &copt.Claims[v]
		for i := 0; i < cv.Len(); i++ {
			c, l := cv.At(i)
			recs = append(recs, bankRec{int32(v), int32(cl.Rep(c)), l})
		}
	}
	ar.recs = recs
	out.Claims.build(&ar.build, chip.Banks(), recs)
	for v := range demands {
		x, y := CenterOfMass(chip, &out.Claims[v])
		out.CoM[v] = Point{x, y}
	}
	return out
}

// HierPlaceThreadsIn is the hierarchical form of PlaceThreadsIn (§IV-E).
// Threads are ranked exactly as in the flat placer; each then picks the
// free-slot cluster whose centroid is closest to its preferred point
// (ascending cluster scan, strict improvement — deterministic), and finally
// the free core within that cluster under the flat placer's comparator,
// scanning member tiles in ascending global index. Per thread this costs
// O(clusters + cluster size) instead of O(banks).
func HierPlaceThreadsIn(ar *Arena, chip Chip, demands []Demand, opt Optimistic, nThreads int) []mesh.Tile {
	if ar == nil {
		ar = NewArena()
	}
	cl := chip.Topo.Clusters()
	infos := threadInfosIn(ar, chip, demands, opt, nThreads)

	slots := grow(&ar.hSlots, cl.N())
	for c := range slots {
		slots[c] = cl.Count(mesh.Tile(c))
	}
	free := grow(&ar.freeCore, chip.Banks())
	for i := range free {
		free[i] = true
	}
	out := grow(&ar.threads, nThreads)
	for i := range infos {
		info := &infos[i]
		best := -1
		bestDist := 0.0
		for c := 0; c < cl.N(); c++ {
			if slots[c] == 0 {
				continue
			}
			cx, cy := cl.Centroid(mesh.Tile(c))
			d := math.Abs(cx-info.comX) + math.Abs(cy-info.comY)
			if best < 0 || d < bestDist-1e-12 {
				best, bestDist = c, d
			}
		}
		if best < 0 {
			panic("place: more threads than cores")
		}
		slots[best]--
		x0, y0, x1, y1 := cl.Bounds(mesh.Tile(best))
		bc := -1
		bcd := 0.0
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				t := chip.Topo.TileAt(x, y)
				if !free[t] {
					continue
				}
				d := chip.Topo.DistanceToPoint(t, info.comX, info.comY)
				if bc < 0 || d < bcd-1e-12 {
					bc, bcd = int(t), d
				}
			}
		}
		free[bc] = false
		out[info.id] = mesh.Tile(bc)
	}
	return out
}

// hierVC is one VC's capacity slice inside one cluster.
type hierVC struct {
	v     int
	lines float64
}

// hierWorker holds one interior-refinement worker's private scratch. Workers
// never share mutable state: each owns its arena, demand backings and record
// buffer, and results are merged sequentially.
type hierWorker struct {
	ar    *Arena
	recs  []bankRec // fine-bank records of the worker's clusters, in cluster order
	ds    []Demand
	ths   []int
	rates []float64
	cores []mesh.Tile
	topos []*mesh.Topology // sub-meshes by shape, kept across rounds
}

// subMesh returns the worker's sub-mesh of the given shape, building it on
// first use. A cluster view has at most four shapes (full clusters, and
// ragged ones at the right edge, the bottom edge and the corner), so each
// worker builds a handful of topologies once instead of one per cluster
// per round.
func (w *hierWorker) subMesh(width, height int) *mesh.Topology {
	for _, t := range w.topos {
		if t.Width() == width && t.Height() == height {
			return t
		}
	}
	t := mesh.New(width, height)
	w.topos = append(w.topos, t)
	return t
}

// HierGreedyRefineIn is the hierarchical form of GreedyIn (+ RefineIn when
// refine is set): steps that replace the flat §IV-F data placement above
// HierarchyThreshold banks.
//
// Level 1 places capacity greedily over the coarse cluster mesh (threads
// projected to their clusters) and, when refine is set, runs the bounded
// trade spiral there — inter-cluster moves in cluster hops, whose latency
// gain is reported scaled by the cluster side to approximate fine hops.
//
// Level 2 refines each cluster's interior independently: the VC slices the
// coarse pass left in a cluster become single-accessor local demands pulled
// toward the VC's rate-weighted accessor centroid (clamped into the cluster),
// placed and trade-refined on a small sub-mesh of the cluster's shape (each
// worker builds one per shape and reuses it). Interiors fan out across a
// bounded worker pool; every cluster's subproblem is independent and buffers
// are merged in ascending cluster order, so the result is identical for any
// worker count.
func HierGreedyRefineIn(ar *Arena, chip Chip, demands []Demand, threadCore []mesh.Tile, chunk float64, refine bool) (Assignment, int, float64) {
	if ar == nil {
		ar = NewArena()
	}
	cl := chip.Topo.Clusters()
	cchip := coarseChipIn(ar, chip, cl)

	// Level 1: coarse placement with threads projected onto clusters.
	cCores := grow(&ar.hCCores, len(threadCore))
	for t, core := range threadCore {
		cCores[t] = cl.Of(core)
	}
	ca := ar.coarse()
	cAssign := GreedyIn(ca, cchip, demands, cCores, chunk)
	trades, delta := 0, 0.0
	if refine {
		tr, dl := RefineIn(ca, cchip, demands, cAssign, cCores)
		trades, delta = tr, dl*float64(cl.Side())
	}

	// Group the coarse result by cluster: ascending VC order within each.
	cvcs := growLists(&ar.hCVCs, cl.N())
	ccount := grow(&ar.hCCount, cl.N())
	for v := range demands {
		cv := &cAssign[v]
		for i := 0; i < cv.Len(); i++ {
			if c, l := cv.At(i); l > 1e-9 {
				ccount[c]++
			}
		}
	}
	reserveLists(ccount, func(c int) *[]hierVC { return &cvcs[c] })
	for v := range demands {
		cv := &cAssign[v]
		for i := 0; i < cv.Len(); i++ {
			if c, l := cv.At(i); l > 1e-9 {
				cvcs[c] = append(cvcs[c], hierVC{v, l})
			}
		}
	}

	// Pull points: where each VC's data wants to sit on the fine mesh.
	pullX := grow(&ar.hPullX, len(demands))
	pullY := grow(&ar.hPullY, len(demands))
	ccx, ccy := chip.Topo.Coords(chip.Topo.CenterTile())
	for v := range demands {
		d := &demands[v]
		if total := d.TotalRate(); total > 0 {
			var wx, wy float64
			for i, t := range d.Threads {
				tx, ty := chip.Topo.Coords(threadCore[t])
				wx += d.Rates[i] * float64(tx)
				wy += d.Rates[i] * float64(ty)
			}
			pullX[v], pullY[v] = wx/total, wy/total
		} else {
			pullX[v], pullY[v] = float64(ccx), float64(ccy)
		}
	}

	// Level 2: independent per-cluster interiors across a bounded pool.
	cTrades := grow(&ar.hTrades, cl.N())
	cDeltas := grow(&ar.hDeltas, cl.N())
	nw := runtime.GOMAXPROCS(0)
	if nw > maxHierWorkers {
		nw = maxHierWorkers
	}
	if hierWorkers > 0 {
		nw = hierWorkers
	}
	if nw > cl.N() {
		nw = cl.N()
	}
	for len(ar.hWorkers) < nw {
		ar.hWorkers = append(ar.hWorkers, &hierWorker{ar: NewArena()})
	}
	for _, w := range ar.hWorkers[:nw] {
		w.recs = w.recs[:0]
	}
	// Share k is clusters [k·per, (k+1)·per). The calling goroutine hands
	// shares 1 on to the pool, runs those the pool has no room for, and
	// then share 0.
	call := &ar.hCall
	call.chip, call.cl, call.cvcs = chip, cl, cvcs
	call.pullX, call.pullY, call.demands = pullX, pullY, demands
	call.chunk, call.refine = chunk, refine
	call.trades, call.deltas = cTrades, cDeltas
	per := (cl.N() + nw - 1) / nw
	for k := 1; k < nw; k++ {
		if lo, hi := k*per, min((k+1)*per, cl.N()); lo < hi {
			if s := (hierShare{call, ar.hWorkers[k], lo, hi}); !hierHandOff(s) {
				s.run()
			}
		}
	}
	hierShare{call, ar.hWorkers[0], 0, min(per, cl.N())}.run()
	call.wg.Wait()
	call.release()

	// Merge in ascending cluster order: worker k holds the clusters after
	// worker k-1's, in order. Every fine bank belongs to exactly one cluster
	// and each (VC, bank) pair appears at most once per cluster, so each
	// VC's banks are distinct and the assignment is built from the records.
	parts := ar.hParts[:0]
	for k := 0; k < nw; k++ {
		parts = append(parts, ar.hWorkers[k].recs)
	}
	ar.hParts = parts
	out := arenaAssignment(&ar.assign, len(demands))
	out.build(&ar.build, chip.Banks(), parts...)
	for c := 0; c < cl.N(); c++ {
		trades += cTrades[c]
		delta += cDeltas[c]
	}
	return out, trades, delta
}

// interior solves one cluster's placement subproblem: each VC slice becomes a
// single-accessor demand whose synthetic core is the VC's pull point clamped
// into the cluster, placed greedily (and trade-refined) on the cluster's
// sub-mesh. Appends the resulting fine-bank records to w.recs.
func (w *hierWorker) interior(chip Chip, cl *mesh.Clusters, c int, vcs []hierVC,
	pullX, pullY []float64, demands []Demand,
	chunk float64, refine bool, trades *int, delta *float64) {
	*trades, *delta = 0, 0
	if len(vcs) == 0 {
		return
	}
	x0, y0, x1, y1 := cl.Bounds(mesh.Tile(c))
	sub := w.subMesh(x1-x0, y1-y0)
	schip := Chip{Topo: sub, BankLines: chip.BankLines}

	nv := len(vcs)
	ths := ensure(&w.ths, nv)
	rates := ensure(&w.rates, nv)
	cores := ensure(&w.cores, nv)
	ds := ensure(&w.ds, nv)
	for i, e := range vcs {
		ths[i] = i
		rates[i] = demands[e.v].TotalRate()
		ds[i] = Demand{Size: e.lines, Threads: ths[i : i+1 : i+1], Rates: rates[i : i+1 : i+1]}
		px := clampF(pullX[e.v], float64(x0), float64(x1-1))
		py := clampF(pullY[e.v], float64(y0), float64(y1-1))
		cores[i] = sub.NearestTile(px-float64(x0), py-float64(y0))
	}

	assign := GreedyIn(w.ar, schip, ds, cores, chunk)
	if refine {
		*trades, *delta = RefineIn(w.ar, schip, ds, assign, cores)
	}
	for i := range assign {
		av := &assign[i]
		for j := 0; j < av.Len(); j++ {
			b, l := av.At(j)
			bx, by := sub.Coords(b)
			w.recs = append(w.recs, bankRec{int32(vcs[i].v), int32(chip.Topo.TileAt(x0+bx, y0+by)), l})
		}
	}
}

// maxHierWorkers caps the shares one call splits level 2 into.
const maxHierWorkers = 8

// hierCall is one HierGreedyRefineIn call's level-2 inputs and outputs,
// shared by its shares. It lives in the Arena, so handing shares out
// allocates nothing.
type hierCall struct {
	chip         Chip
	cl           *mesh.Clusters
	cvcs         [][]hierVC
	pullX, pullY []float64
	demands      []Demand
	chunk        float64
	refine       bool
	trades       []int
	deltas       []float64
	wg           sync.WaitGroup
}

// release drops the call's references to the caller's data.
func (c *hierCall) release() {
	c.chip, c.cl, c.cvcs = Chip{}, nil, nil
	c.pullX, c.pullY, c.demands = nil, nil, nil
	c.trades, c.deltas = nil, nil
}

// hierShare is one worker's share of a call: clusters [lo, hi).
type hierShare struct {
	call   *hierCall
	w      *hierWorker
	lo, hi int
}

// run solves the share's cluster interiors in order. A cluster's records
// number about one per tile plus one per VC slice, so the worker's record
// buffer is sized for the share's clusters once rather than grown cluster
// by cluster.
func (s hierShare) run() {
	c := s.call
	need := 0
	for k := s.lo; k < s.hi; k++ {
		need += c.cl.Count(mesh.Tile(k)) + len(c.cvcs[k])
	}
	s.w.recs = slices.Grow(s.w.recs, need)
	for k := s.lo; k < s.hi; k++ {
		s.w.interior(c.chip, c.cl, k, c.cvcs[k], c.pullX, c.pullY, c.demands,
			c.chunk, c.refine, &c.trades[k], &c.deltas[k])
	}
}

// The pool runs the shares that calls hand off: one goroutine per CPU
// (GOMAXPROCS when the pool starts), started on first use and kept for the
// life of the process, behind a queue as long. A call so starts no
// goroutine and allocates nothing to fan out, where a goroutine per share
// cost a closure each and, now and then, a new goroutine descriptor, which
// made a round's allocation vary. The hand-off never waits: when the queue
// is full, every CPU already has work, and the caller runs the share
// itself. Concurrent calls so share the CPUs rather than a fixed number of
// goroutines, and shares never wait on other shares, so a busy pool cannot
// deadlock a call.
var (
	hierPoolOnce sync.Once
	hierShares   chan hierShare
)

// hierHandOff queues s for the pool, counted in s.call.wg, and reports
// whether it did; it does not when the queue is full.
func hierHandOff(s hierShare) bool {
	hierPoolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		hierShares = make(chan hierShare, n)
		for range n {
			go func() {
				for s := range hierShares {
					s.run()
					s.call.wg.Done()
				}
			}()
		}
	})
	s.call.wg.Add(1)
	select {
	case hierShares <- s:
		return true
	default:
		s.call.wg.Done()
		return false
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
