package resultstore

import (
	"bytes"
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
// With a fleet view attached (UseFleet), membership is health-checked:
// peers whose circuit breaker is open are skipped outright — a dead peer
// costs nothing after the breaker trips, instead of a dial timeout per
// lookup — and every fetch's outcome feeds the view.
type PeerTier struct {
	peers       []string
	client      *http.Client
	maxAttempts int
	fleet       *fleet.Fleet
	membership  *fleet.Membership // non-nil: live peer list (members − self)
	self        string            // this replica's own advertised URL

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

// NewPeerTier builds a peer tier over sibling base URLs (e.g.
// "http://10.0.0.2:8080"). client may be nil for a default with a 5s
// timeout; maxAttempts ≤ 0 means DefaultPeerAttempts, capped at the number
// of peers.
func NewPeerTier(peers []string, client *http.Client, maxAttempts int) *PeerTier {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if maxAttempts <= 0 {
		maxAttempts = DefaultPeerAttempts
	}
	return &PeerTier{
		peers:       fanout.NormalizeReplicas(peers),
		client:      client,
		maxAttempts: maxAttempts,
		flight:      map[string]*peerFlight{},
	}
}

// UseFleet attaches a fleet view: breaker-open peers are skipped and fetch
// outcomes feed the view's instrumentation. Call before serving traffic.
func (p *PeerTier) UseFleet(f *fleet.Fleet) { p.fleet = f }

// UseMembership makes the peer list live: lookups walk the registry's
// current members (minus this replica's own advertised URL, self) instead
// of the static list given to NewPeerTier, so peers that join or drain are
// picked up without reconstruction. Call before serving traffic.
func (p *PeerTier) UseMembership(m *fleet.Membership, self string) {
	p.membership = m
	if n := fanout.NormalizeReplicas([]string{self}); len(n) == 1 {
		p.self = n[0]
	}
}

// peerList resolves the peers a lookup may consult right now.
func (p *PeerTier) peerList() []string {
	if p.membership == nil {
		return p.peers
	}
	members := p.membership.Members()
	out := members[:0]
	for _, m := range members {
		if m != p.self {
			out = append(out, m)
		}
	}
	return out
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
// (fetchLocked does the walking).
func (p *PeerTier) fetch(key string) ([]byte, bool) {
	if len(p.peerList()) == 0 {
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

	fl.val, fl.ok = p.walk(key)

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
// skipped without a request when a fleet view is attached.
func (p *PeerTier) walk(key string) ([]byte, bool) {
	ranked := fanout.Rank(p.peerList(), key)
	attempts := 0
	for _, peer := range ranked {
		if attempts >= p.maxAttempts {
			break
		}
		if p.fleet != nil && !p.fleet.Healthy(peer) {
			continue
		}
		attempts++
		var end func(error)
		if p.fleet != nil {
			end = p.fleet.Begin(peer)
		}
		val, err := p.fetchOne(peer, key)
		if end != nil {
			end(err)
		}
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

// fetchOne asks a single peer for the framed entry. Returns (nil, nil) for
// a clean not-found — the peer is healthy, it just doesn't hold the key.
func (p *PeerTier) fetchOne(peer, key string) ([]byte, error) {
	resp, err := p.client.Get(peer + "/v1/blob/" + key)
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
	// growth slack. The chain keeps a fetched value in its memory tier, so
	// copy out just the payload.
	return bytes.Clone(val), nil
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
