package cdcs_test

// Chaos integration tests for the fleet layer: distributed sweeps against
// replicas that flap, slow down and die mid-sweep. The invariant under test
// is always the same — routing changes where cells are computed, never what
// they return — so every scenario ends with a byte-identity check against
// the in-process Sweep. CI runs these under -race.

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdcs"
	"cdcs/internal/fanout"
	"cdcs/internal/fleet"
	"cdcs/internal/server"
	"cdcs/internal/testutil"
)

// faultedReplica starts an in-process replica behind a FaultProxy, so the
// test can kill, slow or burst-fail it mid-sweep.
func faultedReplica(t *testing.T, opts server.Options) *testutil.FaultProxy {
	t.Helper()
	backend := distReplica(t, opts)
	proxy, err := testutil.NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	return proxy
}

// TestSweepFleetReplicaFlapMidSweep kills one replica after two cells have
// completed and revives it after eight. The sweep must complete with zero
// failed cells, byte-identical to the in-process Sweep; the flap is visible
// in the stats (failures on the flapped replica, breaker trip recorded).
func TestSweepFleetReplicaFlapMidSweep(t *testing.T) {
	req := distGrid()
	local, err := cdcs.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)

	// The replicas listen on random ports, so which cells each owns changes
	// from run to run. With one worker, the kill at done == 2 lands before
	// cell 2 is dispatched and the revival at done == 8 after cell 7
	// completes, so the replica that flaps is the rendezvous owner of cell
	// 2: the outage then always covers a cell it owns.
	a := faultedReplica(t, server.Options{})
	b := faultedReplica(t, server.Options{})
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := canon.Cells()
	if err != nil {
		t.Fatal(err)
	}
	stable, flappy := a, b
	urlA, urlB := fleet.NormalizeURL(a.URL()), fleet.NormalizeURL(b.URL())
	if fanout.Rank([]string{urlA, urlB}, cells[2].Hash)[0] == urlA {
		stable, flappy = b, a
	}

	// TopK=1 pins pure rendezvous routing, so the dead replica's owned
	// cells must hit it — the flap cannot be steered around before it is
	// even noticed, which keeps the failure trace deterministic.
	var phase atomic.Int32 // 0 = up, 1 = killed, 2 = revived
	res, stats, err := cdcs.SweepDistributed(req, []string{stable.URL(), flappy.URL()}, cdcs.DistributedSweepOptions{
		Parallelism:           1, // serialize so the flap lands between cells
		FleetProbeInterval:    -1,
		FleetBreakerThreshold: 1,
		TopK:                  1,
		Progress: func(done, total int) {
			switch {
			case done == 2 && phase.CompareAndSwap(0, 1):
				flappy.Kill()
			case done == 8 && phase.CompareAndSwap(1, 2):
				flappy.Revive()
			}
		},
	})
	if err != nil {
		t.Fatalf("sweep across a replica flap failed: %v", err)
	}
	if phase.Load() != 2 {
		t.Fatalf("flap did not run to completion (phase %d)", phase.Load())
	}
	resJSON, _ := json.Marshal(res)
	if !bytes.Equal(resJSON, localJSON) {
		t.Error("flapped sweep is not byte-identical to the in-process Sweep")
	}
	total := 0
	for _, n := range stats.Cells {
		total += n
	}
	if total != 16 {
		t.Fatalf("served %d cells, want 16: %+v", total, stats.Cells)
	}
	flappyURL := strings.TrimRight(flappy.URL(), "/")
	if stats.Failures[flappyURL] == 0 {
		t.Error("the flap left no failure trace in the stats")
	}
	if h, ok := stats.Fleet[flappyURL]; !ok || h.BreakerTrips == 0 {
		t.Errorf("breaker never tripped on the flapped replica: %+v", stats.Fleet)
	}

	// Recovery: the replica is back up, so a fresh sweep (fresh fleet view)
	// serves it traffic again with zero failures — and the exact same bytes.
	res2, stats2, err := cdcs.SweepDistributed(req, []string{stable.URL(), flappy.URL()}, cdcs.DistributedSweepOptions{
		FleetProbeInterval: -1,
		TopK:               1,
	})
	if err != nil {
		t.Fatalf("sweep after revival failed: %v", err)
	}
	if len(stats2.Failures) != 0 {
		t.Errorf("revived replica still failing: %+v", stats2.Failures)
	}
	if stats2.Cells[flappyURL] == 0 {
		t.Error("revived replica served no cells")
	}
	res2JSON, _ := json.Marshal(res2)
	if !bytes.Equal(res2JSON, localJSON) {
		t.Error("post-revival sweep is not byte-identical")
	}
}

// TestSweepFleetSteersAwayFromSlowReplica: one replica 10× slower but fully
// alive. The sweep must complete byte-identically with zero failures, and
// the slow replica's served share must fall measurably below its rendezvous
// share (what it was assigned).
func TestSweepFleetSteersAwayFromSlowReplica(t *testing.T) {
	req := distGrid()
	local, err := cdcs.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)

	fast := distReplica(t, server.Options{})
	slow := faultedReplica(t, server.Options{})
	slow.SetLatency(80 * time.Millisecond)

	start := time.Now()
	res, stats, err := cdcs.SweepDistributed(req, []string{fast.URL, slow.URL()}, cdcs.DistributedSweepOptions{
		Parallelism:        2,
		FleetProbeInterval: -1,
	})
	if err != nil {
		t.Fatalf("sweep with a slow replica failed: %v", err)
	}
	elapsed := time.Since(start)
	resJSON, _ := json.Marshal(res)
	if !bytes.Equal(resJSON, localJSON) {
		t.Error("steered sweep is not byte-identical to the in-process Sweep")
	}
	if len(stats.Failures) != 0 {
		t.Errorf("slow-but-alive replica produced failures: %+v", stats.Failures)
	}
	slowURL := strings.TrimRight(slow.URL(), "/")
	fastURL := strings.TrimRight(fast.URL, "/")
	if stats.Cells[slowURL] >= stats.Cells[fastURL] {
		t.Errorf("slow replica served %d ≥ fast's %d; load was not steered",
			stats.Cells[slowURL], stats.Cells[fastURL])
	}
	if stats.Cells[slowURL] >= stats.Assigned[slowURL] && stats.Assigned[slowURL] > 0 {
		t.Errorf("slow replica served %d of %d assigned; share did not shrink",
			stats.Cells[slowURL], stats.Assigned[slowURL])
	}
	t.Logf("steering: slow served %d (assigned %d), fast served %d (assigned %d), wall %v",
		stats.Cells[slowURL], stats.Assigned[slowURL],
		stats.Cells[fastURL], stats.Assigned[fastURL], elapsed)
}

// TestSweepFleetPureRendezvousWithTopK1 pins the routing contract's other
// end: TopK=1 disables load competition, so assignments equal servings even
// with a slow replica in the set (and the result is still byte-identical —
// slower, never wrong).
func TestSweepFleetPureRendezvousWithTopK1(t *testing.T) {
	req := distGrid()
	a := distReplica(t, server.Options{})
	slow := faultedReplica(t, server.Options{})
	slow.SetLatency(20 * time.Millisecond)

	res, stats, err := cdcs.SweepDistributed(req, []string{a.URL, slow.URL()}, cdcs.DistributedSweepOptions{
		Parallelism:        2,
		FleetProbeInterval: -1,
		TopK:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for url, assigned := range stats.Assigned {
		if stats.Cells[url] != assigned {
			t.Errorf("%s served %d of %d assigned; TopK=1 must not move healthy cells",
				url, stats.Cells[url], assigned)
		}
	}
	local, err := cdcs.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, _ := json.Marshal(res)
	localJSON, _ := json.Marshal(local)
	if !bytes.Equal(resJSON, localJSON) {
		t.Error("TopK=1 sweep is not byte-identical to the in-process Sweep")
	}
}

// TestSweepFleetHotCellReplicationWarmsSecondHolder: with HotCellLatency
// below every service time, each cell is replicated to its alternate
// holder, so a follow-up sweep with the original holder dead is served
// entirely from warm caches — zero new simulations anywhere.
func TestSweepFleetHotCellReplicationWarmsSecondHolder(t *testing.T) {
	req := distGrid()
	a := faultedReplica(t, server.Options{})
	b := faultedReplica(t, server.Options{})
	reps := []string{a.URL(), b.URL()}

	res1, stats, err := cdcs.SweepDistributed(req, reps, cdcs.DistributedSweepOptions{
		FleetProbeInterval: -1,
		HotCellLatency:     time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replicated != 16 {
		t.Errorf("Replicated = %d, want 16 (every cell hot)", stats.Replicated)
	}

	// Every cell now has a warm copy on both replicas: kill either one and
	// the survivor replays the whole sweep from cache, byte-identically.
	a.Kill()
	res2, _, err := cdcs.SweepDistributed(req, reps, cdcs.DistributedSweepOptions{
		FleetProbeInterval:    -1,
		FleetBreakerThreshold: 1,
	})
	if err != nil {
		t.Fatalf("replay against the surviving holder failed: %v", err)
	}
	j1, _ := json.Marshal(res1)
	j2, _ := json.Marshal(res2)
	if !bytes.Equal(j1, j2) {
		t.Error("replay from replicated copies differs from the original")
	}
}
