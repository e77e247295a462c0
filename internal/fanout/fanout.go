// Package fanout shards content-addressed work units across HTTP replicas.
//
// Each unit (a "cell" — one JSON POST whose response is fully determined by
// its content address) is assigned to a replica by rendezvous hashing of
// its key: every client ranks the replicas for a key the same way, so
// independent clients route a cell to the same replica and its result cache
// absorbs the repeats. When a replica fails, only the cells it owned move —
// each retries down its own rendezvous ranking onto surviving replicas, the
// same replicas those cells would hash to if the dead one were removed from
// the set.
//
// The caller's fleet view (internal/fleet) is the only record of which
// replicas exist and which are down. Each cell is ranked over the view's
// members when it is dispatched, so a join or drain mid-fan-out re-routes
// only cells not yet started, and of those only the ones whose top
// rendezvous holders changed (TestRebalanceIsIncremental); in-flight cells
// complete on the route they were dispatched with. Every request's outcome
// feeds the view's per-replica circuit breakers; breaker-open replicas are
// skipped and retried last, so a dead replica costs O(1) failed dials per
// fan-out rather than one per owned cell. Routing also reacts to load: each
// cell goes to the least-loaded healthy replica among its top-K rendezvous
// holders (cache affinity preserved — the holders don't change, only the
// order among them), and cells whose service latency exceeds
// Options.HotLatency are replicated in the background to a second holder so
// warm copies exist on more than one replica. Routing only ever changes
// *where* a cell is computed, never *what* it returns: responses are a pure
// function of the cell's content address.
package fanout

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cdcs/internal/fleet"
)

// Cell is one unit of work: Body is POSTed to the chosen replica, and Key
// (the cell's content address) drives replica choice.
type Cell struct {
	Index int
	Key   string
	Body  []byte
}

// Result is one completed cell.
type Result struct {
	Index int
	// Replica is the base URL that served the cell.
	Replica string
	// Attempts is the number of requests issued for this cell (1 = no
	// retry).
	Attempts int
	// Latency is how long the serving request took.
	Latency time.Duration
	// Body is the replica's response body, verbatim.
	Body []byte
}

// ReplicaStats describes one replica's share of a fan-out.
type ReplicaStats struct {
	// Assigned counts cells whose rendezvous ranking put this replica
	// first; Served counts cells whose response this replica produced.
	// They differ when retries or load-aware routing moved work.
	Assigned int `json:"assigned"`
	Served   int `json:"served"`
	// Failed counts requests this replica failed (connection errors and
	// 5xx responses).
	Failed int `json:"failed"`
}

// Stats summarizes a fan-out.
type Stats struct {
	Replicas map[string]ReplicaStats `json:"replicas"`
	// Retried counts cells that were not served by their first-choice
	// replica (the head of their routing order).
	Retried int `json:"retried"`
	// Replicated counts hot cells successfully re-posted to a second
	// rendezvous holder (see Options.HotLatency).
	Replicated int `json:"replicated,omitempty"`
}

// Options tunes Do. The zero value is usable.
type Options struct {
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Parallelism caps concurrent in-flight requests (default 4 per
	// replica).
	Parallelism int
	// OnProgress, if set, is called after each completed cell with (done,
	// total).
	OnProgress func(done, total int)
	// HotLatency marks a cell hot when its serving request took longer
	// than this. A hot cell is re-POSTed in the background to the first
	// other healthy holder among its top-K (fleet.Alternate), which warms
	// its cache (from its own compute, or via its peer tier's /v1/blob
	// pull when so configured) so later requests for the cell have a
	// second warm home. 0 disables replication.
	HotLatency time.Duration
}

// path is the endpoint each cell is POSTed to on its replica.
const path = "/v1/compare"

// Do fans cells out across the replicas of fl and returns their results
// ordered by cell (results[i] belongs to cells[i]). Each cell is ranked
// over fl.Replicas() when it is dispatched; an empty member list falls back
// to the members the fan-out started with, so a transient membership
// hiccup cannot strand cells with no candidates. Each cell is tried on
// every replica in its routing order before the whole fan-out fails; a 4xx
// response fails immediately (the request itself is invalid — no other
// replica will accept it). On error the first failure is returned and
// in-flight work is canceled; a fan-out whose context ends returns
// ctx.Err().
func Do(ctx context.Context, fl *fleet.Fleet, cells []Cell, opts Options) ([]Result, Stats, error) {
	stats := Stats{Replicas: map[string]ReplicaStats{}}
	initial := fl.Replicas()
	if len(initial) == 0 {
		return nil, stats, fmt.Errorf("fanout: no replicas")
	}
	for _, r := range initial {
		stats.Replicas[r] = ReplicaStats{}
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = 4 * len(initial)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	members := func() []string {
		if m := fl.Replicas(); len(m) > 0 {
			return m
		}
		return initial
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // guards stats, done, firstErr
		done     int
		firstErr error
		wg       sync.WaitGroup
	)
	results := make([]Result, len(cells))
	next := make(chan int)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// Hot-cell replication rides behind the fan-out: bounded, best-effort
	// background POSTs whose only job is warming a second holder's cache.
	// Do waits for them so callers can observe Replicated deterministically.
	var repWG sync.WaitGroup
	repSem := make(chan struct{}, 2)
	replicate := func(cell Cell, target string) {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			select {
			case repSem <- struct{}{}:
				defer func() { <-repSem }()
			case <-ctx.Done():
				return
			}
			end := fl.Begin(target)
			_, _, err := post(ctx, client, target+path, cell.Body)
			finish(ctx, end, err)
			if err == nil {
				mu.Lock()
				stats.Replicated++
				mu.Unlock()
			}
		}()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cell := cells[i]
				ranked := Rank(members(), cell.Key)
				route := fl.Order(ranked)
				mu.Lock()
				rs := stats.Replicas[ranked[0]]
				rs.Assigned++
				stats.Replicas[ranked[0]] = rs
				mu.Unlock()

				res, served, failed, err := tryReplicas(ctx, client, route, cell, fl)
				mu.Lock()
				for _, r := range failed {
					rs := stats.Replicas[r]
					rs.Failed++
					stats.Replicas[r] = rs
				}
				if err == nil {
					rs := stats.Replicas[served]
					rs.Served++
					stats.Replicas[served] = rs
					if served != route[0] {
						stats.Retried++
					}
					results[i] = res
					done++
					// Invoked under mu so (done, total) reports are
					// monotonic — the callback must not block.
					if opts.OnProgress != nil {
						opts.OnProgress(done, len(cells))
					}
					mu.Unlock()
					if opts.HotLatency > 0 && res.Latency > opts.HotLatency {
						if target := fl.Alternate(ranked, served); target != "" {
							replicate(cell, target)
						}
					}
					continue
				}
				mu.Unlock()
				fail(err)
				return
			}
		}()
	}

feed:
	for i := range cells {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	repWG.Wait()

	if firstErr != nil {
		return nil, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// tryReplicas walks a cell's routing order until a replica answers,
// skipping replicas whose breaker is open and retrying the skipped ones
// last — a breaker can be stale, and exhausting the ranking, not a stale
// verdict, must be the only way a cell fails. Returns the replicas that
// failed along the way so the caller can account them. A request cut short
// by the fan-out's own context blames no replica: the cell fails with
// ctx.Err().
func tryReplicas(ctx context.Context, client *http.Client, route []string, cell Cell, fl *fleet.Fleet) (res Result, served string, failed []string, err error) {
	var lastErr error
	attempts := 0
	// tryOne issues one request; ok reports success, terminal a
	// non-retriable failure.
	tryOne := func(replica string) (ok bool, terminal error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		attempts++
		end := fl.Begin(replica)
		start := time.Now()
		body, retriable, perr := post(ctx, client, replica+path, cell.Body)
		abandoned := finish(ctx, end, perr)
		switch {
		case perr == nil:
			res = Result{Index: cell.Index, Replica: replica, Attempts: attempts, Latency: time.Since(start), Body: body}
			served = replica
			return true, nil
		case abandoned:
			return false, ctx.Err()
		case !retriable:
			return false, fmt.Errorf("fanout: cell %d on %s: %w", cell.Index, replica, perr)
		}
		failed = append(failed, replica)
		lastErr = perr
		return false, nil
	}

	var skipped []string
	for _, replica := range route {
		if !fl.Healthy(replica) {
			skipped = append(skipped, replica)
			continue
		}
		ok, terminal := tryOne(replica)
		if terminal != nil {
			return Result{}, "", failed, terminal
		}
		if ok {
			return res, served, failed, nil
		}
	}
	for _, replica := range skipped {
		ok, terminal := tryOne(replica)
		if terminal != nil {
			return Result{}, "", failed, terminal
		}
		if ok {
			return res, served, failed, nil
		}
	}
	return Result{}, "", failed, fmt.Errorf("fanout: cell %d failed on all %d replicas: %w", cell.Index, len(route), lastErr)
}

// finish reports one request's outcome to the fleet view. A request that
// failed because the fan-out's own context ended is abandoned: it says
// nothing about the replica, so it releases its slot without a verdict.
func finish(ctx context.Context, end func(error), err error) (abandoned bool) {
	abandoned = err != nil && ctx.Err() != nil
	if abandoned {
		err = fleet.ErrAbandoned
	}
	end(err)
	return abandoned
}

// post issues one POST. retriable reports whether another replica might
// succeed where this one failed: true for transport errors and 5xx, false
// for 4xx (the request itself is bad).
func post(ctx context.Context, client *http.Client, url string, body []byte) (respBody []byte, retriable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	if err != nil {
		return nil, true, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if len(b) > maxReplyBytes {
			// Not retriable: the body is a pure function of the request,
			// so every replica would send the same one.
			return nil, false, fmt.Errorf("%s: reply exceeds %d bytes", url, maxReplyBytes)
		}
		return b, false, nil
	case resp.StatusCode >= 500:
		return nil, true, fmt.Errorf("%s: %s", resp.Status, trim(b))
	default:
		return nil, false, fmt.Errorf("%s: %s", resp.Status, trim(b))
	}
}

// maxReplyBytes bounds one replica reply, the same bound the peer tier puts
// on a fetched blob.
const maxReplyBytes = 64 << 20

// trim bounds an error body for message embedding.
func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// Rank orders replicas for a key by rendezvous (highest-random-weight)
// hashing: every replica is scored by SHA-256(replica NUL key) and sorted
// by descending score. All clients rank identically for a key regardless of
// the order replicas were listed in, and removing one replica only moves
// the keys it owned — everything else keeps its ranking. The full order is
// the retry path: position 0 owns the key, position 1 inherits it if 0 is
// down, and so on.
func Rank(replicas []string, key string) []string {
	type scored struct {
		replica string
		score   uint64
	}
	ss := make([]scored, len(replicas))
	for i, r := range replicas {
		h := sha256.New()
		io.WriteString(h, r)
		h.Write([]byte{0})
		io.WriteString(h, key)
		sum := h.Sum(nil)
		ss[i] = scored{replica: r, score: binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].replica < ss[j].replica
	})
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.replica)
	}
	return out
}
