// Package rnuca implements R-NUCA's page-level mechanisms (Hardavellas et
// al., ISCA'09; §II-A of the CDCS paper): OS page classification into
// private data, shared data and instructions, placement of each class
// (local bank / chip-wide interleave / rotational interleaving among a
// 4-bank cluster), and the reclassification state machine that re-homes a
// page when a second core touches it.
//
// The analytic R-NUCA policy in internal/policy models the steady-state
// capacity effects of these mechanisms; this package provides the
// mechanism-level substrate itself, so the classification behaviour the
// baseline depends on is implemented and tested rather than assumed.
package rnuca

import (
	"fmt"

	"cdcs/internal/cachesim"
	"cdcs/internal/mesh"
)

// Class is a page's R-NUCA classification.
type Class uint8

const (
	// Unknown: never touched.
	Unknown Class = iota
	// PrivateData: touched by exactly one core; homed at its local bank.
	PrivateData
	// SharedData: touched by multiple cores; interleaved chip-wide.
	SharedData
	// Instruction: code pages; rotationally interleaved in a 4-bank cluster.
	Instruction
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Unknown:
		return "unknown"
	case PrivateData:
		return "private"
	case SharedData:
		return "shared"
	case Instruction:
		return "instruction"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Page identifies a virtual page (address >> pageShift).
type Page uint64

// pageShift for 4KB pages of 64B lines: 6 line-offset bits.
const pageShift = 6

// PageOf returns the page containing a line address.
func PageOf(addr cachesim.Addr) Page {
	return Page(addr >> pageShift)
}

// Stats counts classification events.
type Stats struct {
	// FirstTouches is the number of pages classified on first access.
	FirstTouches int64
	// Reclassifications counts private→shared transitions.
	Reclassifications int64
	// Shootdowns counts the TLB shootdowns those transitions require (one
	// per reclassification in this model; the expensive part of R-NUCA's
	// re-homing that CDCS's two-level translation avoids, §III).
	Shootdowns int64
}

// pageInfo is the OS-visible state of one page.
type pageInfo struct {
	class Class
	owner int // first-touch core for private pages
}

// Runtime is the R-NUCA OS layer: page table classification plus placement.
type Runtime struct {
	topo *mesh.Topology
	// table maps pages to classification state.
	table map[Page]*pageInfo
	// clusters[c] is core c's rotational-interleaving cluster (itself plus
	// its nearest neighbours, 4 banks where the mesh allows).
	clusters [][]mesh.Tile

	// Stats is the exported event accounting.
	Stats Stats
}

// New builds an R-NUCA runtime over a mesh.
func New(topo *mesh.Topology) *Runtime {
	r := &Runtime{
		topo:     topo,
		table:    map[Page]*pageInfo{},
		clusters: make([][]mesh.Tile, topo.Tiles()),
	}
	for c := 0; c < topo.Tiles(); c++ {
		// Rotational interleaving: the core's bank plus its closest
		// neighbours form the 4-bank instruction cluster.
		cur := topo.RingFrom(mesh.Tile(c))
		for len(r.clusters[c]) < 4 {
			b, ok := cur.Next()
			if !ok {
				break
			}
			r.clusters[c] = append(r.clusters[c], b)
		}
	}
	return r
}

// Access classifies (or reclassifies) the page of addr for an access by
// core, and returns the bank the line maps to. isInstr marks instruction
// fetches.
func (r *Runtime) Access(core int, addr cachesim.Addr, isInstr bool) mesh.Tile {
	page := PageOf(addr)
	info, ok := r.table[page]
	if !ok {
		info = &pageInfo{owner: core}
		if isInstr {
			info.class = Instruction
		} else {
			info.class = PrivateData
		}
		r.table[page] = info
		r.Stats.FirstTouches++
	} else if info.class == PrivateData && core != info.owner && !isInstr {
		// Second core touches a private page: reclassify to shared. The
		// page's lines re-home from the owner's bank to the chip-wide
		// interleave, which requires a TLB shootdown and invalidations —
		// R-NUCA's expensive remapping path.
		info.class = SharedData
		r.Stats.Reclassifications++
		r.Stats.Shootdowns++
	}
	return r.home(core, addr, info)
}

// home places a line according to its page's class.
func (r *Runtime) home(core int, addr cachesim.Addr, info *pageInfo) mesh.Tile {
	switch info.class {
	case PrivateData:
		// Private data lives in the owner's local bank.
		return mesh.Tile(info.owner)
	case SharedData:
		// Shared data interleaves chip-wide by line address.
		return mesh.Tile(hash64(uint64(addr)) % uint64(r.topo.Tiles()))
	case Instruction:
		// Instructions rotate within the requesting core's cluster, so hot
		// code is always within ~1 hop without chip-wide replication.
		cl := r.clusters[core]
		return cl[hash64(uint64(addr))%uint64(len(cl))]
	}
	return mesh.Tile(core)
}

// ClassOf returns a page's current class (Unknown if untouched).
func (r *Runtime) ClassOf(page Page) Class {
	if info, ok := r.table[page]; ok {
		return info.class
	}
	return Unknown
}

// OwnerOf returns the first-touch core of a page (-1 if untouched).
func (r *Runtime) OwnerOf(page Page) int {
	if info, ok := r.table[page]; ok {
		return info.owner
	}
	return -1
}

// Pages returns the number of classified pages.
func (r *Runtime) Pages() int { return len(r.table) }

// ClassCounts tallies pages per class.
func (r *Runtime) ClassCounts() map[Class]int {
	out := map[Class]int{}
	for _, info := range r.table {
		out[info.class]++
	}
	return out
}

// Cluster returns core's rotational-interleaving banks.
func (r *Runtime) Cluster(core int) []mesh.Tile {
	return r.clusters[core]
}

// hash64 is splitmix64 (shared mixing with the rest of the repo).
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
