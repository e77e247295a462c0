package core

import (
	"cdcs/internal/alloc"
	"cdcs/internal/place"
)

// Arena bundles the reusable storage for one reconfiguration pipeline:
// placement scratch (steps 2-4) and capacity-allocation scratch (step 1).
// With a warm arena and a sealed mix, a steady-state ReconfigureWith round
// allocates nothing end to end; a nil arena gives the round a fresh one.
//
// An Arena is not safe for concurrent use. Results built with it borrow its
// memory and stay valid only until its next use.
type Arena struct {
	Place place.Arena
	Alloc alloc.Arena
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }
