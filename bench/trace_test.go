package main

import (
	"math"
	"testing"
	"time"
)

// selfTime is the total length of s's self intervals.
func selfTime(s span, children []span) time.Duration {
	var d int64
	for _, iv := range selfIntervals(s, children) {
		d += iv.b - iv.a
	}
	return time.Duration(d)
}

// A root with two children that overlap in time (schemes evaluated side by
// side) and a grandchild.
func parallelTree() (root span, all []span) {
	root = span{ID: 1, Name: "client.request", Start: 0, End: 100}
	a := span{ID: 2, Parent: 1, Name: "mesh.new", Start: 10, End: 60}
	b := span{ID: 3, Parent: 1, Name: "perfmodel.evaluate", Start: 40, End: 90}
	c := span{ID: 4, Parent: 2, Name: "encode.marshal", Start: 20, End: 30}
	return root, []span{root, a, b, c}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	root, all := parallelTree()
	tr := newTree(all)
	// The children cover [10, 90] together; their overlap counts once.
	if got := selfTime(root, tr.children[root.ID]); got != 20 {
		t.Errorf("root self time = %d, want 20", got)
	}
	a := tr.byID[2]
	if got := selfTime(a, tr.children[a.ID]); got != 40 {
		t.Errorf("child self time = %d, want 40 (50 minus its 10-unit child)", got)
	}
	// A child sticking out of its parent only removes the covered part.
	p := span{Start: 0, End: 10}
	if got := selfTime(p, []span{{Start: 5, End: 50}}); got != time.Duration(5) {
		t.Errorf("self time with an overhanging child = %d, want 5", got)
	}
}

// attribute splits overlapping self time evenly and sums to the root's
// duration.
func TestAttributeSplitsParallelTime(t *testing.T) {
	root, all := parallelTree()
	got := newTree(all).attribute(root)
	want := map[string]float64{
		"http":      20,          // root self: [0,10] and [90,100]
		"mesh":      20 + 20/2.0, // [10,20] and [30,40] alone, [40,60] shared
		"encode":    10,
		"perfmodel": 30 + 20/2.0, // [60,90] alone, [40,60] shared
	}
	var sum float64
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("layer %s = %g, want %g", l, v, want[l])
		}
	}
	if sum != float64(root.dur()) {
		t.Errorf("attributed %g of a %d root", sum, root.dur())
	}
}

// analyze joins store spans recorded without a parent to the handler
// serving the same address, and grafts a decomposed cell under the handler
// that simulated it.
func TestAnalyzeJoinsAndGrafts(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100, Addr: "h"},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 10, End: 90, Addr: "h", Replica: "r0", Cache: "miss"},
		{ID: 3, Name: "store.memory.get", Start: 12, End: 14, Addr: "h", Replica: "r0"},
		{ID: 4, Name: "store.memory.put", Start: 80, End: 82, Addr: "h", Replica: "r0"},
	}
	d := &decomposed{hash: "h", side: "8x8", wall: 30, spans: []span{
		{ID: 1, Name: "cell.compute", Start: 0, End: 30},
		{ID: 2, Parent: 1, Name: "mesh.new", Start: 0, End: 30},
	}}
	lr := analyze(spans, []*decomposed{d}, 1)
	tr := newTree(lr.spans)
	if p := tr.byID[3].Parent; p != 2 {
		t.Errorf("store span joined to %d, want handler 2", p)
	}
	var compute span
	for _, s := range tr.children[2] {
		if s.Name == "cell.compute" {
			compute = s
		}
	}
	if compute.Start != 50 || compute.End != 80 {
		t.Errorf("grafted compute at [%d,%d], want [50,80] (ending where the write-through starts)", compute.Start, compute.End)
	}
	if got, want := lr.values["share.mesh"], 0.30; math.Abs(got-want) > 1e-9 {
		t.Errorf("share.mesh = %g, want %g", got, want)
	}
	if got, want := lr.values["share.store"], 0.04; math.Abs(got-want) > 1e-9 {
		t.Errorf("share.store = %g, want %g", got, want)
	}
	if got := lr.queueWait; len(got) != 1 || got[0] != ms(50) {
		t.Errorf("queue wait = %v, want [%g]", got, ms(50))
	}
}
