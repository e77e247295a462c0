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
	gRem     []float64
	gLive    []int
	assign   Assignment

	// RefineIn (which also reuses distFlat for its on-demand rows).
	distSrcs   []distSrc
	used       []float64
	accPerLine []float64
	residents  [][]resident
	desirables []desirable
	tileW      []float64
	pcTiles    []mesh.Tile
	mine       []mineLines
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
	hEntries [][]hierEntry
	hTrades  []int
	hDeltas  []float64
	hWorkers []*hierWorker
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

// growClusterVCs returns n per-cluster VC-slice lists, each truncated to
// empty while keeping its capacity.
func growClusterVCs(buf *[][]hierVC, n int) [][]hierVC {
	s := *buf
	if cap(s) < n {
		ns := make([][]hierVC, n)
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

// growClusterEntries returns n per-cluster entry buffers with their
// capacities retained. Entries are truncated by the workers that own them.
func growClusterEntries(buf *[][]hierEntry, n int) [][]hierEntry {
	s := *buf
	if cap(s) < n {
		ns := make([][]hierEntry, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	*buf = s
	return s
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

// growResidents returns n per-bank resident lists, each truncated to empty
// while keeping its capacity.
func growResidents(buf *[][]resident, n int) [][]resident {
	s := *buf
	if cap(s) < n {
		ns := make([][]resident, n)
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
