package cdcs

// Distributed sweeps: the cells of a SweepRequest are independent
// CompareRequests with content addresses, so a sweep shards across
// cdcs-serve replicas with no new server state — each cell is POSTed to
// /v1/compare on the replica its address rendezvous-hashes to (see
// internal/fanout), failed shards retry on surviving replicas, and the
// responses merge in deterministic cell order. Because every replica's
// response is byte-determined by the cell's content address, the merged
// SweepResult is bit-identical to a local Sweep and to any other replica
// count: 1 replica, N replicas and in-process evaluation all marshal to the
// same bytes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"cdcs/internal/fanout"
	"cdcs/internal/fleet"
)

// DistributedSweepOptions tunes SweepDistributed. The zero value is usable.
type DistributedSweepOptions struct {
	// Client is the HTTP client used for replica requests (default
	// http.DefaultClient — supply one with a timeout for production use).
	Client *http.Client
	// Parallelism caps concurrent in-flight cell requests across all
	// replicas (default 4 per replica).
	Parallelism int
	// Context cancels the fan-out.
	Context context.Context
	// Progress, if set, receives (cells done, total cells).
	Progress func(done, total int)
	// FleetProbeInterval is the period of the background /healthz probes
	// over the replicas for the duration of the sweep (default 2s; negative
	// disables probing, so only request outcomes drive the breakers).
	FleetProbeInterval time.Duration
	// FleetBreakerThreshold is the number of consecutive failures that
	// opens a replica's circuit breaker (default 3).
	FleetBreakerThreshold int
	// HotCellLatency marks a cell hot when its serving request took longer
	// than this; hot cells are replicated in the background to a second
	// rendezvous holder so warm copies exist on more than one replica. 0
	// disables replication.
	HotCellLatency time.Duration
	// TopK is how many of a cell's top rendezvous holders compete on load
	// (default 2; 1 restores pure rendezvous routing).
	TopK int
	// OnMembership, if set, is invoked whenever the coordinator adopts a
	// new fleet member list mid-sweep (discovered through the membership
	// snapshots replica healthz responses carry), with the members and
	// epoch adopted. Informational — the re-routing itself is automatic.
	OnMembership func(members []string, epoch uint64)
}

// ReplicaHealth is one replica's fleet-view snapshot at the end of a
// distributed sweep.
type ReplicaHealth struct {
	// State is the circuit-breaker state: "closed", "open" or "half-open".
	State string `json:"state"`
	// EWMALatencyMs is the smoothed service latency of successful requests,
	// in milliseconds.
	EWMALatencyMs float64 `json:"ewma_latency_ms"`
	// Requests and Errors count completed and failed requests to the
	// replica during the sweep (health probes excluded).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// BreakerTrips counts closed → open breaker transitions.
	BreakerTrips int64 `json:"breaker_trips"`
}

// SweepReplicaStats reports how a distributed sweep spread over replicas,
// keyed by normalized replica base URL.
type SweepReplicaStats struct {
	// Assigned counts cells whose rendezvous ranking put each replica
	// first; Cells counts cells each replica actually served. They differ
	// when load-aware routing or retries moved work.
	Assigned map[string]int `json:"assigned,omitempty"`
	Cells    map[string]int `json:"cells"`
	// Failures counts failed requests per replica (connection errors, 5xx);
	// a replica with failures and zero served cells was down throughout.
	Failures map[string]int `json:"failures,omitempty"`
	// Retried counts cells that moved off their first-choice replica.
	Retried int `json:"retried,omitempty"`
	// Replicated counts hot cells re-posted to a second holder (see
	// DistributedSweepOptions.HotCellLatency).
	Replicated int `json:"replicated,omitempty"`
	// Fleet is the end-of-sweep health snapshot per replica.
	Fleet map[string]ReplicaHealth `json:"fleet,omitempty"`
}

// SweepDistributed evaluates a config-grid sweep by sharding its cells
// across cdcs-serve replicas (base URLs like "http://host:8080"). Cells are
// routed by rendezvous hash of their content address, so concurrent clients
// sweeping overlapping grids converge on the same replica per cell and its
// result cache coalesces the work; a replica failure moves only that
// replica's cells onto survivors. For the duration of the sweep a fleet
// view (internal/fleet) health-checks the replicas and steers each cell to
// the least-loaded healthy replica among its top rendezvous holders, so a
// slow or flapping replica sheds load without operator action. Routing
// only ever changes where a cell is computed: the merged result is
// byte-identical to Sweep's for any replica count, any routing order and
// any failure pattern that leaves the sweep completable.
func SweepDistributed(req SweepRequest, replicas []string, opts DistributedSweepOptions) (*SweepResult, *SweepReplicaStats, error) {
	canon, err := req.Canonical()
	if err != nil {
		return nil, nil, err
	}
	cells, err := canon.Cells()
	if err != nil {
		return nil, nil, err
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	units := make([]fanout.Cell, len(cells))
	for i, cell := range cells {
		body, err := json.Marshal(cell.Request)
		if err != nil {
			return nil, nil, fmt.Errorf("cdcs: sweep cell %d: %w", i, err)
		}
		units[i] = fanout.Cell{Index: i, Key: cell.Hash, Body: body}
	}

	// The fleet view lives for the duration of the sweep: its prober tracks
	// replica health in the background while request outcomes feed the
	// per-replica load signals the router steers by. Membership is live:
	// replica healthz responses carry (members, epoch) snapshots, and
	// AdoptMembers applies them to the view — a replica that joins
	// mid-sweep starts absorbing the not-yet-dispatched cells it owns, and
	// one that drains stops receiving new ones. The member list given here
	// is only the starting point.
	fl := fleet.New(replicas, fleet.Options{
		ProbeInterval:    opts.FleetProbeInterval,
		BreakerThreshold: opts.FleetBreakerThreshold,
		TopK:             opts.TopK,
		Client:           opts.Client,
		AdoptMembers:     true,
		OnMembership:     opts.OnMembership,
	})
	fl.Start()
	defer fl.Close()

	results, fstats, err := fanout.Do(ctx, fl, units, fanout.Options{
		Client:      opts.Client,
		Parallelism: opts.Parallelism,
		OnProgress:  opts.Progress,
		HotLatency:  opts.HotCellLatency,
	})
	stats := &SweepReplicaStats{
		Assigned:   map[string]int{},
		Cells:      map[string]int{},
		Failures:   map[string]int{},
		Retried:    fstats.Retried,
		Replicated: fstats.Replicated,
		Fleet:      map[string]ReplicaHealth{},
	}
	for url, rs := range fstats.Replicas {
		stats.Assigned[url] = rs.Assigned
		stats.Cells[url] = rs.Served
		if rs.Failed > 0 {
			stats.Failures[url] = rs.Failed
		}
	}
	for _, rep := range fl.Snapshot() {
		stats.Fleet[rep.URL] = ReplicaHealth{
			State:         rep.State,
			EWMALatencyMs: rep.EWMALatencyMs,
			Requests:      rep.Requests,
			Errors:        rep.Errors,
			BreakerTrips:  rep.Trips,
		}
	}
	if err != nil {
		return nil, stats, err
	}

	out := &SweepResult{Request: canon, Cells: make([]SweepCellResult, len(cells))}
	for i, res := range results {
		// compareEnvelope mirrors the serving layer's /v1/compare body.
		var env struct {
			Hash       string      `json:"hash"`
			Comparison *Comparison `json:"comparison"`
		}
		if err := json.Unmarshal(res.Body, &env); err != nil {
			return nil, stats, fmt.Errorf("cdcs: cell %d response from %s: %w", i, res.Replica, err)
		}
		// The replica echoes the content address it computed for the cell;
		// a mismatch means it answered a different question than asked.
		if env.Hash != cells[i].Hash {
			return nil, stats, fmt.Errorf("cdcs: cell %d response hash %.12s from %s does not match request hash %.12s",
				i, env.Hash, res.Replica, cells[i].Hash)
		}
		if env.Comparison == nil {
			return nil, stats, fmt.Errorf("cdcs: cell %d response from %s has no comparison", i, res.Replica)
		}
		out.Cells[i] = SweepCellResult{SweepCell: cells[i], Comparison: env.Comparison}
	}
	return out, stats, nil
}
