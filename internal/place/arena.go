package place

import "cdcs/internal/mesh"

// Arena holds reusable scratch buffers for one placement pipeline (one
// reconfiguration of one simulated cell). Threading one arena through
// OptimisticPlaceIn, PlaceThreadsIn, GreedyIn and RefineIn makes the
// steady-state placement round allocation-free: every buffer is grown once
// and reused on subsequent rounds.
//
// An Arena is not safe for concurrent use. Results produced through an
// arena (assignments, claims, thread placements, distance rows) borrow its
// memory: they stay valid only until the arena's next placement call, so callers that retain results across rounds must either copy what
// they need or pass a nil arena, which gives the call a fresh one.
type Arena struct {
	// VCDistancesIn.
	dist     [][]float64
	distFlat []float64

	// orderBySizeIn.
	order []int

	// OptimisticPlaceIn.
	claimed    []float64
	centers    []mesh.Tile
	com        []Point
	claims     Assignment
	center     centerSearch
	centerWork CenterWork

	// GreedyIn.
	free     []float64
	gOrder   []mesh.Tile
	gCursors []greedyCursor
	gState   []greedyVC
	gDist    []float64
	gLive    []int
	assign   Assignment

	// Assignment.build, for the optimistic claims, the greedy placement and
	// the hierarchical merge: the records of the build in progress and the
	// build's scratch.
	recs  []bankRec
	build buildScratch

	claimCount int // GreedyIn's claims, see Arena.Claims

	// RefineIn (which also reuses distFlat for its on-demand rows).
	distSrcs   []distSrc
	accPerLine []float64
	tradeBanks []tradeBank
	resCount   []int32
	desirables []desirable
	tileW      []float64
	pcTiles    []mesh.Tile
	dub        []float64
	dubStep    []int
	refineWork RefineWork

	// PlaceThreadsIn.
	infos     []threadInfo
	coms      []comAcc
	freeCore  []bool
	threads   []mesh.Tile
	coreCands []coreCand
	coreLow   []coreCand

	// Hierarchical placement (hier.go).
	hCaps    []float64
	hSlots   []int
	hCCores  []mesh.Tile
	hPullX   []float64
	hPullY   []float64
	hCVCs    [][]hierVC
	hCCount  []int32
	hParts   [][]bankRec
	hTrades  []int
	hDeltas  []float64
	hWorkers []*hierWorker
	hCall    hierCall
	hCoarse  *Arena
}

// coarse returns the sub-arena hierarchical placement threads through the
// coarse-mesh calls, so coarse scratch never clobbers the fine results being
// assembled in the parent arena.
func (a *Arena) coarse() *Arena {
	if a.hCoarse == nil {
		a.hCoarse = NewArena()
	}
	return a.hCoarse
}

// RefineWork returns the trade-pass work counted by every RefineIn call
// through this arena so far, including the hierarchical path's coarse pass
// and cluster interiors. The counts only grow: a caller measuring one round
// subtracts the value read before it.
func (a *Arena) RefineWork() RefineWork {
	w := a.refineWork
	if a.hCoarse != nil {
		w.add(a.hCoarse.RefineWork())
	}
	for _, hw := range a.hWorkers {
		w.add(hw.ar.RefineWork())
	}
	return w
}

// Claims returns the number of chunk claims every GreedyIn call through
// this arena has made so far, including the hierarchical path's coarse pass
// and cluster interiors. Like RefineWork, it only grows.
func (a *Arena) Claims() int {
	n := a.claimCount
	if a.hCoarse != nil {
		n += a.hCoarse.Claims()
	}
	for _, hw := range a.hWorkers {
		n += hw.ar.Claims()
	}
	return n
}

// CenterWork returns the candidate-center search work counted by every
// OptimisticPlaceIn call through this arena so far, including the
// hierarchical path's coarse pass. The counts only grow: a caller measuring
// one round subtracts the value read before it.
func (a *Arena) CenterWork() CenterWork {
	w := a.centerWork
	if a.hCoarse != nil {
		w.add(a.hCoarse.CenterWork())
	}
	return w
}

// growLists returns n lists, each truncated to empty while keeping its
// capacity.
func growLists[T any](buf *[][]T, n int) [][]T {
	s := *buf
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	*buf = s
	return s
}

// reserveLists gives every list i, which must be empty, that holds less
// capacity than counts[i] a region of exactly that much in one new backing
// array; lists that already hold enough keep their own buffers. list(i)
// points at list i. A fresh arena so makes one allocation where growing
// each list by append makes several per list, and a warm one makes none.
// Regions are capped, so an append past a list's region moves that list
// out rather than into its neighbour's.
func reserveLists[T any](counts []int32, list func(i int) *[]T) {
	need := 0
	for i, n := range counts {
		if cap(*list(i)) < int(n) {
			need += int(n)
		}
	}
	if need == 0 {
		return
	}
	flat := make([]T, need)
	for i, k := range counts {
		if l, n := list(i), int(k); cap(*l) < n {
			*l, flat = flat[:0:n], flat[n:]
		}
	}
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// grow returns a zeroed slice of length n, reusing buf's capacity when it
// suffices and recording the result back into *buf.
func grow[T any](buf *[]T, n int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// ensure returns a slice of length n without clearing reused contents (for
// buffers whose users reset exactly the entries they touch).
func ensure[T any](buf *[]T, n int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// arenaAssignment returns a reset Assignment of n VCs, reusing *buf's
// per-VC buffers.
func arenaAssignment(buf *Assignment, n int) Assignment {
	a := *buf
	if cap(a) < n {
		na := make(Assignment, n)
		copy(na, a[:cap(a)])
		a = na
	} else {
		a = a[:n]
	}
	for i := range a {
		a[i].reset()
	}
	*buf = a
	return a
}
