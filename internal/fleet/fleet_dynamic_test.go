package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls pred until it holds or the deadline passes.
func waitFor(t *testing.T, pred func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCloseCancelsBlockedProbes pins the shutdown contract: probes descend
// from the fleet's context, so Close returns promptly even while a probe is
// blocked on a replica that accepts connections but never answers, and no
// probe goroutines leak.
func TestCloseCancelsBlockedProbes(t *testing.T) {
	// A listener that accepts and then ignores the connection: the probe's
	// HTTP request blocks until its context is cancelled.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()

	before := runtime.NumGoroutine()
	f := New([]string{"http://" + ln.Addr().String()}, Options{
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  time.Minute, // far past the test: only Close can unblock
	})
	f.Start()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(conns) > 0
	}, "a probe to block on the silent listener")

	start := time.Now()
	f.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %s with a probe blocked mid-request", d)
	}
	// Transport goroutines wind down asynchronously after the cancel; the
	// count must return to (about) the pre-fleet baseline.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 },
		fmt.Sprintf("goroutines to drain (before=%d, now=%d)", before, runtime.NumGoroutine()))
}

// TestIdentityChangeResetsRecord pins restart detection: when the instance
// id in healthz changes, the replica's record resets — so a breaker opened
// against the dead instance trips *again* for the new one (without the
// reset, an open breaker never re-trips), and the incarnation counter
// records the restart.
func TestIdentityChangeResetsRecord(t *testing.T) {
	var (
		code atomic.Int32 // 200 or 503
		id   atomic.Value // string
	)
	code.Store(http.StatusOK)
	id.Store("one")
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(code.Load()))
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "id": id.Load()})
	}))
	t.Cleanup(backend.Close)

	f := New([]string{backend.URL}, Options{
		ProbeInterval:    5 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no cooldown recovery: only reset can close
	})
	f.Start()
	defer f.Close()

	snap := func() ReplicaStats { return f.Snapshot()[0] }
	waitFor(t, func() bool { s := snap(); return s.ID == "one" && s.State == "closed" },
		"identity to be observed")
	if snap().Incarnations != 0 {
		t.Fatalf("incarnations = %d before any restart", snap().Incarnations)
	}

	// The instance starts failing: breaker opens, one trip.
	code.Store(http.StatusServiceUnavailable)
	waitFor(t, func() bool { s := snap(); return s.State == "open" && s.Trips == 1 },
		"breaker to trip on instance one")

	// A new process answers on the same address — still unhealthy. The id
	// change must reset the record: the breaker closes for the newcomer,
	// then its own failures trip it afresh (a second trip, impossible
	// without the reset), and the restart is counted.
	id.Store("two")
	waitFor(t, func() bool { s := snap(); return s.Incarnations == 1 && s.Trips >= 2 },
		"restart detection to reset the breaker and re-trip")

	// The same id never resets again.
	waitFor(t, func() bool { return snap().ID == "two" }, "new id recorded")
	if snap().Incarnations != 1 {
		t.Errorf("incarnations = %d, want 1 (same id must not re-count)", snap().Incarnations)
	}

	// And when the new instance is actually healthy, probes close the
	// breaker as usual.
	code.Store(http.StatusOK)
	waitFor(t, func() bool { return snap().State == "closed" }, "healthy probes to close")
}

// TestAdoptMembersFollowsHealthzSnapshots pins coordinator-side dynamic
// membership: with AdoptMembers, a membership snapshot carried in a probed
// healthz response replaces the fleet's member set (under the epoch rules),
// and OnMembership observes the change.
func TestAdoptMembersFollowsHealthzSnapshots(t *testing.T) {
	var (
		mu      sync.Mutex
		members []string
		epoch   uint64
	)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "id": "seed", "members": members, "epoch": epoch,
		})
	}))
	t.Cleanup(backend.Close)

	var adopted atomic.Int64
	f := New([]string{backend.URL}, Options{
		ProbeInterval: 5 * time.Millisecond,
		AdoptMembers:  true,
		OnMembership:  func([]string, uint64) { adopted.Add(1) },
	})
	mu.Lock()
	members, epoch = []string{backend.URL, "http://joined:1"}, 3
	mu.Unlock()
	f.Start()
	defer f.Close()

	waitFor(t, func() bool { return len(f.Replicas()) == 2 }, "snapshot adoption")
	reps := f.Replicas()
	if reps[0] != "http://joined:1" && reps[1] != "http://joined:1" {
		t.Fatalf("Replicas = %v, want the joined member present", reps)
	}
	if _, got := f.mem.Snapshot(); got != 3 {
		t.Errorf("epoch = %d, want 3", got)
	}
	if adopted.Load() == 0 {
		t.Error("OnMembership never fired")
	}

	// An older snapshot must not roll the view back.
	mu.Lock()
	members, epoch = []string{backend.URL}, 1
	mu.Unlock()
	time.Sleep(30 * time.Millisecond)
	if len(f.Replicas()) != 2 {
		t.Errorf("older snapshot shrank the view to %v", f.Replicas())
	}
}
