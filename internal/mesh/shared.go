package mesh

import "sync"

// sharedTopologies bounds the memo behind Shared. A 128×128 topology is
// about 1 MB, so the memo retains a few MB at most, and the eight most
// recently requested sizes cover a sweep's mesh axis.
const sharedTopologies = 8

// shared memoizes topologies by (width, height), most recently used last.
var shared struct {
	mu    sync.Mutex
	topos []*Topology
}

// Shared returns the process's topology for a width×height mesh, building
// it on first use. A Topology is immutable apart from its cluster view,
// which is built once under a sync.Once, so any number of systems and
// goroutines may share one. Only the most recently used sizes are kept; a
// size that falls out is built again when next requested. It panics like
// New on invalid dimensions.
func Shared(width, height int) *Topology {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	for i, t := range shared.topos {
		if t.width == width && t.height == height {
			copy(shared.topos[i:], shared.topos[i+1:])
			shared.topos[len(shared.topos)-1] = t
			return t
		}
	}
	t := New(width, height)
	if len(shared.topos) == sharedTopologies {
		copy(shared.topos, shared.topos[1:])
		shared.topos = shared.topos[:len(shared.topos)-1]
	}
	shared.topos = append(shared.topos, t)
	return t
}
