// Package noc is an event-driven model of the on-chip network: a 2-D mesh
// with X-Y routing, pipelined routers, and link serialization/contention.
//
// The epoch-level performance model (internal/perfmodel) prices an LLC
// access at hops × HopLatency × RoundTrip — a zero-load abstraction. This
// simulator exists to validate that abstraction and to expose where it
// breaks: at low injection rates measured packet latency matches the
// analytic model plus serialization, and under heavy load queueing grows
// latency well beyond it (the ext-noc experiment quantifies both regimes).
//
// The model is deliberately simple and deterministic: each packet of F flits
// traverses its X-Y path hop by hop; at each hop the head flit waits for the
// output link to free, pays the router pipeline delay, and then occupies the
// link for F cycles (flit serialization). X-Y routing on separate queues is
// deadlock-free, so no virtual channels are modeled.
package noc

import (
	"fmt"

	"cdcs/internal/mesh"
)

// Sim is an event-driven mesh network simulator. Create with New; inject
// packets in non-decreasing time order.
type Sim struct {
	topo        *mesh.Topology
	routerDelay float64
	linkDelay   float64

	// linkFree[t][d] is the cycle at which tile t's output link in
	// direction d becomes free (directions: 0=east, 1=west, 2=north,
	// 3=south).
	linkFree [][4]float64

	flitHops   int64 // flit-link traversals (the traffic metric)
	lastInject float64
}

// New builds a simulator over the topology with the given router pipeline
// and link traversal delays in cycles.
func New(topo *mesh.Topology, routerDelay, linkDelay float64) *Sim {
	if routerDelay < 0 || linkDelay <= 0 {
		panic(fmt.Sprintf("noc: invalid delays router=%g link=%g", routerDelay, linkDelay))
	}
	return &Sim{
		topo:        topo,
		routerDelay: routerDelay,
		linkDelay:   linkDelay,
		linkFree:    make([][4]float64, topo.Tiles()),
	}
}

// direction indices.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// Inject sends a packet of flits flits from src to dst, with the head flit
// entering the network at time t. It returns the arrival time of the tail
// flit at dst. Packets must be injected in non-decreasing t order (the
// simulator is a single-pass event model); Inject panics otherwise.
func (s *Sim) Inject(t float64, src, dst mesh.Tile, flits int) float64 {
	if t < s.lastInject {
		panic("noc: packets must be injected in time order")
	}
	s.lastInject = t
	if flits < 1 {
		flits = 1
	}

	if src == dst {
		// Local delivery: router pipeline only.
		return t + s.routerDelay + float64(flits-1)
	}

	x, y := s.topo.Coords(src)
	dx, dy := s.topo.Coords(dst)
	head := t
	cur := src
	// X-Y routing: all X hops, then all Y hops.
	for x != dx || y != dy {
		var dir int
		switch {
		case x < dx:
			dir = dirEast
			x++
		case x > dx:
			dir = dirWest
			x--
		case y < dy:
			dir = dirSouth
			y++
		default:
			dir = dirNorth
			y--
		}
		// Head flit: traverse the router pipeline, then wait for the output
		// link (the pipeline overlaps with queueing: a waiting packet sits
		// in the output buffer, not in front of the crossbar).
		start := head + s.routerDelay
		if free := s.linkFree[cur][dir]; free > start {
			start = free
		}
		// The link is busy until all flits have crossed it.
		s.linkFree[cur][dir] = start + float64(flits)*s.linkDelay
		head = start + s.linkDelay
		s.flitHops += int64(flits)
		cur = s.topo.TileAt(x, y)
	}
	// Tail flit trails the head by (flits-1) link cycles.
	return head + float64(flits-1)*s.linkDelay
}

// ZeroLoadLatency returns the analytic uncontended latency for a packet:
// hops × (router + link) + serialization of the remaining flits.
func (s *Sim) ZeroLoadLatency(src, dst mesh.Tile, flits int) float64 {
	hops := float64(s.topo.Distance(src, dst))
	if hops == 0 {
		return s.routerDelay + float64(flits-1)
	}
	return hops*(s.routerDelay+s.linkDelay) + float64(flits-1)*s.linkDelay
}
