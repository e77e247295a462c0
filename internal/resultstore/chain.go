package resultstore

import (
	"context"
	"sync"
	"sync/atomic"
)

// TierChain is a fallback chain of tiers behind a single singleflight head:
// the one Store implementation, built with Chain. Lookups probe tiers
// fastest-first and a hit at tier i is promoted into every faster tier, so
// the working set migrates toward memory (and a cold replica joining a fleet
// with a peer tier fills its local tiers as it serves). A full miss computes
// once and writes through to every tier.
//
// Singleflight lives once, at the chain head: for a given address there is
// at most one probe sequence and at most one computation in flight
// process-wide, no matter how many tiers sit in the path or how many
// callers pile onto the address.
type TierChain struct {
	tiers []Tier

	flightMu sync.Mutex
	flight   map[string]*chainCall

	coalesced atomic.Int64
	inflight  atomic.Int64
}

// chainCall is one in-flight probe-or-compute; waiters block on done.
type chainCall struct {
	done chan struct{}
	val  []byte
	hit  bool
	err  error
}

// Chain composes tiers, fastest first, into a Store. At least one tier is
// required; Chain(MemoryTier(n), disk) is the common composition.
func Chain(tiers ...Tier) *TierChain {
	if len(tiers) == 0 {
		panic("resultstore: Chain needs at least one tier")
	}
	return &TierChain{tiers: tiers, flight: map[string]*chainCall{}}
}

// Get implements Store: probe tiers in order, counting a hit or miss on
// each tier probed, and promote a hit into every faster tier.
func (c *TierChain) Get(key string) ([]byte, bool) {
	for i, t := range c.tiers {
		if v, ok := t.Get(key); ok {
			c.promote(key, v, i)
			return v, true
		}
	}
	return nil, false
}

// promote writes val into every tier faster than the one it was found in.
func (c *TierChain) promote(key string, val []byte, foundAt int) {
	for j := 0; j < foundAt; j++ {
		c.tiers[j].Put(key, val)
	}
}

// peek probes this process's own tiers without touching hit/miss counters
// (integrity errors are still counted by the tiers themselves), skipping
// remote tiers. It reports the tier index that served the value so the
// caller can promote.
func (c *TierChain) peek(key string) ([]byte, bool, int) {
	for i, t := range c.tiers {
		if _, ok := t.(remoteTier); ok {
			continue
		}
		if p, ok := t.(peeker); ok {
			if v, ok := p.Peek(key); ok {
				return v, true, i
			}
			continue
		}
		if v, ok := t.Get(key); ok {
			return v, true, i
		}
	}
	return nil, false, 0
}

// GetOrCompute implements Store.
func (c *TierChain) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	// The counted lookup probes the tiers (and promotes a hit), so one
	// logical lookup counts exactly once per tier probed; the flight's own
	// re-probe below is uncounted.
	if v, ok := c.Get(key); ok {
		return v, true, nil
	}
	return c.Compute(ctx, key, compute)
}

// Compute implements Store, for callers whose counted lookup already
// missed. The leader of a flight re-probes the local tiers uncounted — the
// value may have landed in one between the caller's lookup and the flight —
// so a late hit short-circuits the computation and is promoted like any
// other, while a real miss computes and writes through to every tier. Remote
// tiers are not re-probed: the caller's lookup just asked them, and asking
// again would cost a network round trip per peer on every computed miss.
// Either way the result is a hit whenever this caller's compute did not run.
func (c *TierChain) Compute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	c.flightMu.Lock()
	if cl, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-cl.done:
			return cl.val, true, cl.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	cl := &chainCall{done: make(chan struct{})}
	c.flight[key] = cl
	c.flightMu.Unlock()

	if v, ok, i := c.peek(key); ok {
		cl.val, cl.hit = v, true
		c.promote(key, v, i)
	} else {
		c.inflight.Add(1)
		cl.val, cl.err = compute()
		c.inflight.Add(-1)
		if cl.err == nil {
			for _, t := range c.tiers {
				t.Put(key, cl.val)
			}
		}
	}
	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(cl.done)
	return cl.val, cl.hit, cl.err
}

// GetLocal returns key's bytes from this process's own tiers only, skipping
// remote tiers (peer) and all hit/miss counters, with no promotion: the
// lookup a sibling replica's /v1/blob request performs. Skipping remote
// tiers means a blob lookup can never recurse back into the fleet, and
// skipping promotion means peer traffic does not reshape the local working
// set.
func (c *TierChain) GetLocal(key string) ([]byte, bool) {
	v, ok, _ := c.peek(key)
	return v, ok
}

// LocalKeys returns the union of content addresses held by this process's
// own tiers (remote tiers hold nothing and are skipped; tiers that cannot
// enumerate contribute nothing): the corpus manifest GET /v1/manifest serves
// and a joining replica warm-fills from. The snapshot is best-effort — keys
// racing in or out during enumeration may or may not appear, which the
// fetcher tolerates (a missing blob is a per-key miss, not a failure).
func (c *TierChain) LocalKeys() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range c.tiers {
		if _, remote := t.(remoteTier); remote {
			continue
		}
		kl, ok := t.(keyLister)
		if !ok {
			continue
		}
		for _, k := range kl.Keys() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// Put stores key's bytes in every local tier, bypassing the flight: the
// warm-join fill path, where values arrive already computed (and already
// integrity-verified by DecodeBlob) from a seed peer. Remote tiers are
// skipped — their Put is a no-op anyway, and a fill must never echo back
// into the fleet.
func (c *TierChain) Put(key string, val []byte) {
	for _, t := range c.tiers {
		if _, remote := t.(remoteTier); remote {
			continue
		}
		t.Put(key, val)
	}
}

// Stats implements Store: tier snapshots fastest first, plus the chain-head
// flight counters.
func (c *TierChain) Stats() Stats {
	ts := make([]TierStats, len(c.tiers))
	for i, t := range c.tiers {
		ts[i] = t.Stats()
	}
	return Stats{
		Tiers:     ts,
		Coalesced: c.coalesced.Load(),
		Inflight:  c.inflight.Load(),
	}
}
