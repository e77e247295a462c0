// Package resultstore layers the content-addressed result caches into a
// fallback chain of tiers — a sharded memory LRU, persistent disk
// (whole-entry or chunked+compressed), peer replicas — behind one small
// Store interface the serving layer programs against.
//
// The contract: simulation is an expensive pure function of a request's
// content address, so any tier may serve any address and all tiers hold
// identical bytes for it. The chain head owns the only singleflight — for a
// given address there is at most one probe sequence and at most one
// simulation in flight process-wide, no matter how many tiers sit in the
// path. A miss only reaches the next tier when every faster tier missed,
// so a recompute happens only when the whole chain (including any peer
// replicas) came up empty.
package resultstore

import "context"

// Store is the result-cache surface the serving layer uses: content-hash
// keyed byte lookups with coalesced computation on miss.
//
// All implementations in this package are safe for concurrent use, and the
// byte slices they return are shared — callers must not modify them.
type Store interface {
	// Get returns the stored bytes for key, if present in any tier.
	Get(key string) ([]byte, bool)

	// GetOrCompute returns the bytes for key, computing and storing them on
	// a full miss. Concurrent calls for one key coalesce onto a single
	// computation. hit reports whether the bytes came from a tier (or a
	// coalesced flight) rather than this caller's own compute.
	GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error)

	// Compute is GetOrCompute without the initial counted lookup, for
	// callers that already observed a miss via Get.
	Compute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error)

	// Stats snapshots per-tier counters, fastest tier first.
	Stats() Stats
}

// Tier is the minimal surface a fallback-chain member implements: counted
// lookups, best-effort stores, and counters. Compose tiers with Chain.
//
// All implementations in this package are safe for concurrent use. Put is
// best-effort — a tier that cannot (or does not) store a value simply
// drops it; tiers are accelerators, never correctness dependencies.
type Tier interface {
	// Name labels the tier in Stats and metrics ("memory", "disk", "peer").
	Name() string

	// Get returns the stored bytes for key, counting a hit or miss.
	Get(key string) ([]byte, bool)

	// Put stores key's bytes (best effort). Read-only tiers no-op.
	Put(key string, val []byte)

	// Stats snapshots the tier's counters.
	Stats() TierStats
}

// peeker is implemented by tiers whose lookups can skip the hit/miss
// counters. Chain uses it for the uncounted re-probe inside a flight whose
// triggering lookup was already counted, so one logical lookup counts
// exactly once per tier. Tiers without it are re-probed with a counted Get.
type peeker interface {
	Peek(key string) ([]byte, bool)
}

// remoteTier marks tiers that consult other processes (the peer tier).
// TierChain.GetLocal skips them so one replica's blob lookup can never
// recurse back into the fleet.
type remoteTier interface {
	TierRemote()
}

// keyLister is implemented by tiers that can enumerate the content
// addresses they hold. TierChain.LocalKeys unions them into the corpus
// manifest a joining replica warm-fills from.
type keyLister interface {
	Keys() []string
}

// TierStats are one tier's counters. Bytes includes per-entry overhead
// (the key for the memory tier, the entry-file framing for the disk tier)
// so tiers report comparable occupancy numbers.
type TierStats struct {
	Name      string `json:"name"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the tier's physical occupancy: for disk tiers the bytes
	// actually resident on disk — compressed, after chunk dedup — which is
	// exactly what the size cap evicts against.
	Bytes int64 `json:"bytes"`
	// LogicalBytes is the uncompressed payload volume the tier represents;
	// Bytes/LogicalBytes is the observable dedup+compression ratio. Zero
	// for tiers that store nothing (peer) — and for the memory tier, where
	// it would equal the payload share of Bytes.
	LogicalBytes int64 `json:"logical_bytes,omitempty"`
	// Errors counts tolerated I/O and integrity failures (corrupt or
	// unreadable disk entries treated as misses, failed writes, failed or
	// damaged peer fetches). Always 0 for the memory tier.
	Errors int64 `json:"errors,omitempty"`
}

// Stats is a snapshot of a whole store.
type Stats struct {
	// Tiers is ordered fastest first ("memory", then "disk" and "peer"
	// when present).
	Tiers []TierStats `json:"tiers"`
	// Coalesced counts callers that waited on another caller's in-flight
	// computation; Inflight is the current number of distinct computations.
	Coalesced int64 `json:"coalesced"`
	Inflight  int64 `json:"inflight"`
}

// Tier returns the named tier's stats (zero value if absent).
func (s Stats) Tier(name string) TierStats {
	for _, t := range s.Tiers {
		if t.Name == name {
			return t
		}
	}
	return TierStats{}
}

// Hits sums hits across tiers; Misses returns the slowest tier's misses
// (a lookup that missed every tier), so Hits+Misses counts lookups.
func (s Stats) Hits() int64 {
	var n int64
	for _, t := range s.Tiers {
		n += t.Hits
	}
	return n
}

// Misses returns the miss count of the slowest tier: lookups no tier could
// serve.
func (s Stats) Misses() int64 {
	if len(s.Tiers) == 0 {
		return 0
	}
	return s.Tiers[len(s.Tiers)-1].Misses
}
