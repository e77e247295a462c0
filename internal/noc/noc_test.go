package noc

import (
	"math/rand"
	"testing"

	"cdcs/internal/mesh"
)

func newSim() *Sim {
	// Table 2: 3-cycle routers, 1-cycle links.
	return New(mesh.New(8, 8), 3, 1)
}

func TestZeroLoadSingleHop(t *testing.T) {
	s := newSim()
	topo := mesh.New(8, 8)
	src, dst := topo.TileAt(0, 0), topo.TileAt(1, 0)
	arrive := s.Inject(0, src, dst, 1)
	want := s.ZeroLoadLatency(src, dst, 1) // 1 hop × (3+1) = 4
	if arrive != want {
		t.Errorf("single-hop latency %g, want %g", arrive, want)
	}
	if want != 4 {
		t.Errorf("zero-load 1-hop = %g, want 4", want)
	}
}

func TestZeroLoadMultiHopMultiFlit(t *testing.T) {
	s := newSim()
	topo := mesh.New(8, 8)
	src, dst := topo.TileAt(0, 0), topo.TileAt(3, 2)
	// 5 hops × 4 cycles + 4 extra flit cycles = 24.
	arrive := s.Inject(0, src, dst, 5)
	if want := s.ZeroLoadLatency(src, dst, 5); arrive != want {
		t.Errorf("latency %g, want %g", arrive, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	s := newSim()
	arrive := s.Inject(10, 5, 5, 4)
	if arrive != 10+3+3 {
		t.Errorf("local delivery at %g, want 16", arrive)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	s := newSim()
	topo := mesh.New(8, 8)
	src, dst := topo.TileAt(0, 0), topo.TileAt(1, 0)
	// Two 5-flit packets at the same instant on the same link: the second
	// waits for the first's serialization.
	a1 := s.Inject(0, src, dst, 5)
	a2 := s.Inject(0, src, dst, 5)
	if a2 <= a1 {
		t.Errorf("contended packet not delayed: %g vs %g", a2, a1)
	}
	// Delay is one packet's link occupancy (5 flit-cycles).
	if got := a2 - a1; got != 5 {
		t.Errorf("contention delay %g, want 5", got)
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	s := newSim()
	topo := mesh.New(8, 8)
	a := s.Inject(0, topo.TileAt(0, 0), topo.TileAt(1, 0), 5)
	b := s.Inject(0, topo.TileAt(0, 7), topo.TileAt(1, 7), 5)
	if a != b {
		t.Errorf("disjoint packets differ: %g vs %g", a, b)
	}
}

func TestInjectOrderEnforced(t *testing.T) {
	s := newSim()
	s.Inject(100, 0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order injection accepted")
		}
	}()
	s.Inject(50, 0, 1, 1)
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	topo := mesh.New(8, 8)
	run := func(interval float64) float64 {
		s := New(topo, 3, 1)
		rng := rand.New(rand.NewSource(7))
		tm, lat := 0.0, 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			src := mesh.Tile(rng.Intn(64))
			dst := mesh.Tile(rng.Intn(64))
			lat += s.Inject(tm, src, dst, 6) - tm
			tm += interval
		}
		return lat / n
	}
	// Injection is chip-wide: with ~5.25 mean hops and 6 flits, the 8-link
	// bisection saturates near 1/(6×0.5/8) ≈ 2.7 packets/cycle.
	light := run(10)   // ~0.1 packets/cycle: well under saturation
	heavy := run(0.25) // ~4 packets/cycle: beyond bisection saturation
	if heavy <= light {
		t.Errorf("latency did not grow with load: %g vs %g", heavy, light)
	}
	// Light load stays close to the analytic zero-load mean:
	// mean 5.25 hops × 4 + 5 serialization ≈ 26.
	if light > 40 {
		t.Errorf("light-load latency %g too far above zero-load", light)
	}
	if heavy < 2*light {
		t.Errorf("heavy-load latency %g does not show queueing (light %g)", heavy, light)
	}
}

func TestAnalyticModelMatchesAtLowLoad(t *testing.T) {
	// The perfmodel abstraction: hops×(router+link). Validate that measured
	// low-load latency ≈ zero-load analytic for every packet.
	topo := mesh.New(8, 8)
	s := New(topo, 3, 1)
	rng := rand.New(rand.NewSource(9))
	tm := 0.0
	for i := 0; i < 5000; i++ {
		src := mesh.Tile(rng.Intn(64))
		dst := mesh.Tile(rng.Intn(64))
		arrive := s.Inject(tm, src, dst, 1)
		want := tm + s.ZeroLoadLatency(src, dst, 1)
		if arrive-want > 8 { // rare transient collisions allowed
			t.Fatalf("packet %d: latency %g, zero-load %g", i, arrive-tm, want-tm)
		}
		tm += 100
	}
}

func TestFlitHopAccounting(t *testing.T) {
	s := newSim()
	topo := mesh.New(8, 8)
	s.Inject(0, topo.TileAt(0, 0), topo.TileAt(2, 1), 5) // 3 hops × 5 flits
	if got := s.flitHops; got != 15 {
		t.Errorf("FlitHops=%d, want 15", got)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid delays accepted")
		}
	}()
	New(mesh.New(2, 2), 3, 0)
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		s := newSim()
		rng := rand.New(rand.NewSource(3))
		tm, lat := 0.0, 0.0
		for i := 0; i < 3000; i++ {
			lat += s.Inject(tm, mesh.Tile(rng.Intn(64)), mesh.Tile(rng.Intn(64)), 1+rng.Intn(5)) - tm
			tm += float64(rng.Intn(10))
		}
		return lat
	}
	if run() != run() {
		t.Error("simulation not deterministic")
	}
}
