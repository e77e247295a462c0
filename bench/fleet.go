package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"cdcs"
	"cdcs/internal/resultstore"
	"cdcs/internal/server"
)

// replicas is the fleet size.
const replicas = 3

// fleetStack is three peered replicas and one sweep coordinator's client.
type fleetStack struct {
	srvs   []*server.Server
	tss    []*httptest.Server
	urls   []string
	client *http.Client
	rpc    *rpcTransport     // set when traced
	orig   http.RoundTripper // http.DefaultTransport before tracing wrapped it
}

func (f *fleetStack) close() {
	for i := range f.tss {
		f.tss[i].Close()
		f.srvs[i].Close()
	}
	f.client.CloseIdleConnections()
	if f.orig != nil {
		http.DefaultTransport = f.orig
	}
}

// simulations sums the replicas' simulation counters.
func (f *fleetStack) simulations() int64 {
	var n int64
	for _, s := range f.srvs {
		n += s.Stats().Simulations
	}
	return n
}

// startFleet brings up the replicas, each peered with the other two, and
// runs sweep 0 so the timed stream starts with a warm overlap.
func startFleet(seed int64, rec *recorder) (*fleetStack, time.Duration, error) {
	t0 := time.Now()
	f := &fleetStack{}
	if rec != nil {
		// A replica's peer tier fetches blobs with a client the server builds
		// itself, on http.DefaultTransport; wrapping that transport is the
		// only outside view of the requesting side of a peer fetch.
		f.orig = http.DefaultTransport
		http.DefaultTransport = &peerTransport{rec: rec, base: f.orig}
	}
	for i := 0; i < replicas; i++ {
		ts := httptest.NewUnstartedServer(nil)
		f.tss = append(f.tss, ts)
		f.urls = append(f.urls, "http://"+ts.Listener.Addr().String())
	}
	for i := range f.tss {
		var peers []string
		for j, u := range f.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv, err := server.New(server.Options{Peers: peers})
		if err != nil {
			for _, s := range f.srvs {
				s.Close()
			}
			for _, ts := range f.tss {
				ts.Listener.Close()
			}
			if f.orig != nil {
				http.DefaultTransport = f.orig
			}
			return nil, 0, err
		}
		f.srvs = append(f.srvs, srv)
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = rec.wrapHandler(fmt.Sprintf("r%d", i), h)
		}
		f.tss[i].Config.Handler = h
	}
	for _, ts := range f.tss {
		ts.Start()
	}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	if rec != nil {
		f.rpc = &rpcTransport{rec: rec, base: rt}
		rt = f.rpc
	}
	f.client = newClient(rt)
	if _, _, err := f.sweep(fleetSweep(seed, 0)); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("set-up sweep: %w", err)
	}
	return f, time.Since(t0), nil
}

// sweep runs one distributed sweep the way the cdcs CLI does: one
// coordinator, two cells in flight.
func (f *fleetStack) sweep(req cdcs.SweepRequest) (*cdcs.SweepResult, *cdcs.SweepReplicaStats, error) {
	return cdcs.SweepDistributed(req, f.urls, cdcs.DistributedSweepOptions{Client: f.client, Parallelism: clients})
}

// fleetTally accumulates the fan-out counters of a window's sweeps.
type fleetTally struct {
	retried  int
	served   map[string]int
	trips    int64
	newCells int
	sims     int64
	// cells maps the cells of the first traced sweeps to their requests,
	// for decomposition.
	cells map[string]cdcs.CompareRequest
}

// warmUp runs sweeps 1..n untimed, so that the window opens on replicas in
// their steady state: heaps and stores filled, code paths warm. The window
// then starts at sweep n+1. On error it closes f.
func (f *fleetStack) warmUp(seed int64, n int) error {
	for k := 1; k <= n; k++ {
		if _, _, err := f.sweep(fleetSweep(seed, k)); err != nil {
			f.close()
			return fmt.Errorf("warm-up sweep %d: %w", k, err)
		}
	}
	return nil
}

// cacheStats sums the replicas' store counters.
func (f *fleetStack) cacheStats() resultstore.Stats {
	var out resultstore.Stats
	for _, s := range f.srvs {
		out = addStats(out, s.Stats().Cache)
	}
	return out
}

// fleetWindow runs sweeps back to back for dur, from sweep first on. Every
// merged cell is checked against earlier copies of the same address, and
// the first sweep and every 50th are compared whole with the in-process
// cdcs.Sweep.
func fleetWindow(f *fleetStack, seed int64, first int, dur time.Duration, rec *recorder, decomposeSweeps int) (*windowResult, *fleetTally) {
	res := &windowResult{}
	tally := &fleetTally{served: map[string]int{}, cells: map[string]cdcs.CompareRequest{}}
	ident := newIdentity()
	// A sweep shares cells only with the one before it.
	seen := map[string]bool{}
	if prev, err := fleetSweep(seed, first-1).Cells(); err == nil {
		for _, c := range prev {
			seen[c.Hash] = true
		}
	}
	var check []int
	kept := map[int]*cdcs.SweepResult{}
	sims0 := f.simulations()
	res.begin()
	deadline := res.start.Add(dur)
	for k := first; time.Now().Before(deadline); k++ {
		req := fleetSweep(seed, k)
		var root, t0ns int64
		if rec != nil && k < first+decomposeSweeps {
			// The coordinator expands the sweep itself; this second expansion
			// maps the cells to decompose and times that step. It sits outside
			// the sweep's span, so it does not count in the shares, and only
			// the decomposed sweeps pay for it.
			c0 := rec.now()
			cells, err := req.Cells()
			rec.add(span{Name: "request.cells", Start: c0, End: rec.now()})
			if err == nil {
				for _, c := range cells {
					tally.cells[c.Hash] = c.Request
				}
			}
		}
		if rec != nil {
			root, t0ns = rec.id(), rec.now()
			f.rpc.parent.Store(root)
		}
		t0 := time.Now()
		out, st, err := f.sweep(req)
		t1 := time.Now()
		if rec != nil {
			rec.add(span{ID: root, Name: "client.sweep", Start: t0ns, End: rec.now()})
		}
		res.attempted++
		if err != nil {
			res.fail("sweep %d: %v", k, err)
			continue
		}
		ok := true
		for _, c := range out.Cells {
			b, err := json.Marshal(c.Comparison)
			if err != nil {
				res.fail("sweep %d cell %d: %v", k, c.Index, err)
				ok = false
				continue
			}
			if !ident.check(c.Hash, b) {
				res.fail("sweep %d cell %d: bytes for %.12s differ from an earlier sweep", k, c.Index, c.Hash)
				ok = false
			}
			if !seen[c.Hash] {
				seen[c.Hash] = true
				tally.newCells++
			}
		}
		tally.retried += st.Retried
		for u, n := range st.Cells {
			tally.served[u] += n
		}
		for _, h := range st.Fleet {
			tally.trips += h.BreakerTrips
		}
		if ok {
			res.done(t0, t1, len(out.Cells))
			if k == first || k%50 == 0 {
				check = append(check, k)
				kept[k] = out
			}
		}
	}
	res.end()
	tally.sims = f.simulations() - sims0
	for _, k := range check {
		want, err := cdcs.Sweep(fleetSweep(seed, k))
		if err != nil {
			res.fail("in-process sweep %d: %v", k, err)
			continue
		}
		a, errA := json.Marshal(kept[k])
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			res.fail("sweep %d: merged result differs from in-process cdcs.Sweep", k)
		}
		res.verified++
	}
	return res, tally
}
