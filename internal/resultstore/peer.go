package resultstore

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cdcs/internal/fanout"
	"cdcs/internal/fleet"
)

// PeerTier consults sibling replicas before the chain falls through to a
// recompute: a read-only tier that fetches entries by content address from
// GET /v1/blob/{hash} on its peers. Replicas are ranked per key with the
// same rendezvous hashing the sweep fan-out uses to route cells
// (fanout.Rank), so the first peers asked are exactly the replicas the
// fleet's clients would have sent the work to — the likely holders. A hit
// is promoted into the faster local tiers by the chain, which is how a
// replica starting with an empty cache directory joins the fleet warm: its
// first pass over a corpus fills memory and disk from its peers, and only
// work the whole fleet has never seen burns a simulation.
//
// Fetched entries arrive in the keyed blob frame (EncodeBlob): the entry
// checksum detects damage in transit exactly like local bit rot, and the
// key binding rejects a stale-but-valid response for the wrong address, so
// a confused peer can never poison this replica's tiers. Both failure
// classes count in Errors and read as misses, never get served.
//
// Concurrent fetches of one address coalesce onto a single network walk:
// the tier keeps its own per-key singleflight, so N simultaneous lookups of
// a cold hash (a sweep's worth of clients converging on one cell) cost one
// peer round trip, not N.
//
// The peers are the members of a fleet view (internal/fleet), so the list
// is live and health-checked: replicas that join or drain are picked up as
// the view changes, peers whose circuit breaker is open are skipped
// outright — a dead peer costs nothing after the breaker trips, instead of
// a dial timeout per lookup — and every fetch's outcome feeds the view.
type PeerTier struct {
	fleet  *fleet.Fleet
	client *http.Client

	flightMu sync.Mutex
	flight   map[string]*peerFlight

	hits   atomic.Int64
	misses atomic.Int64
	errors atomic.Int64
}

// peerFlight is one in-flight peer walk; latecomers block on done and share
// the result.
type peerFlight struct {
	done chan struct{}
	val  []byte
	ok   bool
}

// DefaultPeerAttempts bounds how many ranked peers one lookup consults. Two
// is enough to cover the key's owner plus its first failover holder without
// turning a fleet-wide cold miss into a full broadcast.
const DefaultPeerAttempts = 2

// NewPeerTier builds a peer tier over the members of fl, which must not
// include this replica itself (a replica never fetches from itself).
func NewPeerTier(fl *fleet.Fleet) *PeerTier {
	return &PeerTier{
		fleet:  fl,
		client: &http.Client{Timeout: 5 * time.Second},
		flight: map[string]*peerFlight{},
	}
}

// Name implements Tier.
func (p *PeerTier) Name() string { return "peer" }

// TierRemote marks the tier as consulting other processes, so
// TierChain.GetLocal (the /v1/blob lookup path) skips it and a blob request
// can never recurse back into the fleet.
func (p *PeerTier) TierRemote() {}

// Get implements Tier: try the key's ranked holders until one serves a
// verified entry.
func (p *PeerTier) Get(key string) ([]byte, bool) {
	val, ok := p.fetch(key)
	if ok {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	return val, ok
}

// Peek is Get without the hit/miss counters (fetch failures are still
// counted in Errors).
func (p *PeerTier) Peek(key string) ([]byte, bool) {
	return p.fetch(key)
}

// fetch coalesces concurrent lookups of one key onto a single network walk
// (walk does the walking).
func (p *PeerTier) fetch(key string) ([]byte, bool) {
	peers := p.fleet.Replicas()
	if len(peers) == 0 {
		return nil, false
	}
	p.flightMu.Lock()
	if fl, ok := p.flight[key]; ok {
		p.flightMu.Unlock()
		<-fl.done
		return fl.val, fl.ok
	}
	fl := &peerFlight{done: make(chan struct{})}
	p.flight[key] = fl
	p.flightMu.Unlock()

	fl.val, fl.ok = p.walk(peers, key)

	p.flightMu.Lock()
	delete(p.flight, key)
	p.flightMu.Unlock()
	close(fl.done)
	return fl.val, fl.ok
}

// walk tries the key's rendezvous ranking. A clean 404 means that peer
// simply does not hold the entry; transport errors, non-200 statuses and
// integrity failures count in Errors. Either way the next ranked holder is
// tried, and running out of holders is a miss. Breaker-open peers are
// skipped without a request, and at most DefaultPeerAttempts peers are
// asked.
func (p *PeerTier) walk(peers []string, key string) ([]byte, bool) {
	attempts := 0
	for _, peer := range fanout.Rank(peers, key) {
		if attempts >= DefaultPeerAttempts {
			break
		}
		if !p.fleet.Healthy(peer) {
			continue
		}
		attempts++
		end := p.fleet.Begin(peer)
		val, err := FetchBlob(context.Background(), p.client, peer, key)
		end(err)
		if err != nil {
			p.errors.Add(1)
			continue
		}
		if val != nil {
			return val, true
		}
	}
	return nil, false
}

// FetchBlob asks one peer (a replica base URL) for the framed entry of key
// over GET /v1/blob/{key} and returns the verified payload. It returns
// (nil, nil) for a clean not-found — the peer is healthy, it just doesn't
// hold the key. The peer tier's lookups and a warm join's batch fill both
// fetch through it.
func FetchBlob(ctx context.Context, client *http.Client, peer, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/blob/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("resultstore: peer %s: %s", peer, resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxBlobBytes {
		return nil, fmt.Errorf("resultstore: peer %s: blob exceeds %d bytes", peer, maxBlobBytes)
	}
	val, err := DecodeBlob(key, raw)
	if err != nil {
		return nil, fmt.Errorf("resultstore: peer %s: %w", peer, err)
	}
	// val aliases the whole read buffer: the frame header plus ReadAll's
	// growth slack. Callers keep a fetched value in a memory tier, so copy
	// out just the payload (make, unlike bytes.Clone, adds no capacity).
	out := make([]byte, len(val))
	copy(out, val)
	return out, nil
}

// maxBlobBytes bounds one fetched entry; result bodies are JSON documents
// well under this.
const maxBlobBytes = 64 << 20

// Put implements Tier as a no-op: each replica owns its local tiers, and
// peers are filled by their own compute-and-write-through paths, not pushed
// to.
func (p *PeerTier) Put(string, []byte) {}

// Stats implements Tier. Entries/Bytes stay zero: the tier holds nothing.
func (p *PeerTier) Stats() TierStats {
	return TierStats{
		Name:   "peer",
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Errors: p.errors.Load(),
	}
}
