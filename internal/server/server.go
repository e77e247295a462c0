// Package server is the HTTP serving layer over the cdcs simulator: a JSON
// API backed by a bounded job queue that fans work onto sim.Engine, with a
// content-addressed result cache in front so repeated requests are absorbed
// without re-simulation.
//
// Endpoints:
//
//	POST /v1/compare         evaluate schemes on one mix (synchronous, cached)
//	POST /v1/sweep           evaluate a config grid; cached cell-by-cell
//	POST /v1/experiment      run a paper experiment by id (async job, cached)
//	GET  /v1/experiments     list experiment ids and scheme names
//	GET  /v1/jobs/{id}       job status; SSE progress with Accept: text/event-stream
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET  /healthz            liveness
//	GET  /metrics            counters in Prometheus text format (also on expvar)
//
// Correctness of the cache rests on PR 1's bit-determinism: a request's
// SHA-256 content address (see cdcs.CompareRequest.Hash) fully determines
// the response bytes, so cached and freshly computed responses are
// byte-identical by construction.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdcs"
	"cdcs/internal/fleet"
	"cdcs/internal/resultstore"
)

// Options configures a Server. The zero value picks sensible defaults.
//
// The result store comes from exactly one of two places. When Store is set
// the server uses it as-is and every Cache* / Peers convenience field must
// be left zero (New rejects the conflict: the injected store would silently
// shadow them). Otherwise the convenience fields build the default chain:
// memory (CacheEntries) → disk (CacheDir, CacheDiskBytes, CacheCompress) →
// peer replicas (Peers), each tier present only when configured.
type Options struct {
	// Store, when non-nil, is the result store the server uses verbatim —
	// the dependency-inversion seam for tests and custom tier chains.
	// Conflicts with CacheEntries, CacheDir, CacheDiskBytes, CacheCompress
	// and Peers.
	Store resultstore.Store
	// CacheEntries bounds the memory tier of the result store (default 4096
	// entries).
	CacheEntries int
	// CacheDir, when non-empty, adds a persistent disk tier under that
	// directory: results survive restarts (a warm replica replays a
	// completed sweep with zero simulations) and disk hits are promoted
	// into the memory tier.
	CacheDir string
	// CacheDiskBytes caps the disk tier's size; least-recently-used entries
	// are evicted past it. 0 means DefaultCacheDiskBytes; negative means
	// uncapped. Requires CacheDir.
	CacheDiskBytes int64
	// CacheCompress stores the disk tier chunked: payloads are split into
	// content-defined chunks, deduplicated by SHA-256 and DEFLATE-
	// compressed, so corpora of neighboring sweep cells take a fraction of
	// their logical bytes (see resultstore.ChunkedDisk). Requires CacheDir.
	CacheCompress bool
	// Peers lists sibling replica base URLs. When non-empty, a read-only
	// peer tier is appended after the local tiers: a local miss fetches the
	// entry from the replicas rendezvous-ranked for its key (via GET
	// /v1/blob/{hash}) before falling back to simulation, so a cold replica
	// joins the fleet warm and only a fleet-wide miss burns a simulation.
	// Peer membership is health-checked: a fleet view (internal/fleet)
	// probes each peer's /healthz and runs a per-peer circuit breaker, so
	// dead peers are skipped without a dial and rejoin automatically when
	// their probes recover. Per-peer state is exported as cdcs_fleet_*
	// metrics.
	//
	// Peers is the *initial* member list. With Advertise set the list is
	// live: replicas joining via POST /v1/join (and leaving via /v1/leave
	// or a drain) change it at runtime, and the peer tier, fleet view and
	// /metrics follow.
	Peers []string
	// Advertise is this replica's own base URL as its peers reach it
	// (e.g. "http://10.0.0.3:8080"). Setting it makes the replica a
	// first-class fleet member: it is included in the membership registry
	// it shares with its peers, processes join/leave announcements,
	// serves the corpus manifest warm joiners fill from, and can drain
	// out gracefully. Conflicts with Store (dynamic membership needs the
	// default tier chain for manifest export and warm fill).
	Advertise string
	// Join is a seed peer base URL to join the fleet through at startup:
	// JoinFleet adopts the seed's member list, warm-fills the local store
	// from the seed's corpus manifest, then announces Advertise to the
	// fleet. Requires Advertise. New does not join by itself — call
	// JoinFleet once the listener is serving, so peers that learn of this
	// replica can immediately reach it.
	Join string
	// FleetProbeInterval is the period of the health probes over the
	// peer members (default 2s; negative disables probing, leaving fetch
	// outcomes alone to drive the breakers). Requires Peers or Advertise.
	FleetProbeInterval time.Duration
	// FleetBreakerThreshold is the number of consecutive failures (probes
	// or fetches) that opens a peer's circuit breaker (default 3).
	// Requires Peers or Advertise.
	FleetBreakerThreshold int
	// QueueDepth bounds the job queue; submissions beyond it get 503
	// (default 256).
	QueueDepth int
	// Workers is the number of jobs running concurrently (default
	// max(1, GOMAXPROCS/2) — each job itself fans out on the sim engine).
	Workers int
	// JobTimeout bounds each job's run; 0 means 15m, negative means none.
	JobTimeout time.Duration
	// SimParallelism caps each job's engine workers; 0 means GOMAXPROCS.
	// Results are bit-identical for any value.
	SimParallelism int
	// Pprof mounts net/http/pprof profiling endpoints under /debug/pprof/.
	// Off by default so the standard deployment exposes no introspection
	// surface; with it on, hot-path investigations (placement, cache tiers)
	// start from a CPU/heap profile instead of a guess:
	//
	//	go tool pprof http://HOST/debug/pprof/profile?seconds=30
	//	go tool pprof http://HOST/debug/pprof/heap
	Pprof bool
}

// DefaultCacheDiskBytes is the disk-tier cap when CacheDir is set without
// an explicit size: 1 GiB, roomy for hundreds of thousands of cells.
const DefaultCacheDiskBytes = 1 << 30

func (o Options) withDefaults() Options {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.CacheDiskBytes == 0 {
		o.CacheDiskBytes = DefaultCacheDiskBytes
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 15 * time.Minute
	}
	return o
}

// Server wires the cache, the job manager and the handlers together. Create
// with New, serve via Handler, release with Close.
type Server struct {
	opts        Options
	cache       resultstore.Store
	fleet       *fleet.Fleet      // health view over peer members; nil without any
	membership  *fleet.Membership // live member registry; nil without Peers/Advertise
	id          string            // instance identity token, fresh per process
	advertise   string            // normalized Options.Advertise ("" when unset)
	jobs        *manager
	simulations atomic.Int64 // actual sim.Engine fan-outs (full store misses)
	draining    atomic.Int32 // 0 serving, 1 draining, 2 drained
	drains      atomic.Int64 // drain requests accepted
	started     time.Time

	// gossipPrev is the member list as of the last gossip round, so a
	// membership change also notifies members it *removed* (a kicked or
	// drained replica must learn it is out, or its stale view lingers).
	gossipMu   sync.Mutex
	gossipPrev []string

	// ctx scopes the background goroutines — gossip propagation and the
	// drain loop; Close cancels it and waits on wg.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	client *http.Client // gossip, manifest and warm-fill requests
}

// New builds a ready-to-serve Server and starts its worker pool. The
// result store is the injected Options.Store, or the default chain built
// from the Cache*/Peers fields (see the Options godoc for precedence); New
// fails on conflicting settings or an unopenable cache directory.
func New(opts Options) (*Server, error) {
	if opts.Store != nil {
		if opts.CacheEntries != 0 || opts.CacheDir != "" || opts.CacheDiskBytes != 0 ||
			opts.CacheCompress || len(opts.Peers) > 0 || opts.Advertise != "" || opts.Join != "" {
			return nil, fmt.Errorf("server: Options.Store conflicts with CacheEntries/CacheDir/CacheDiskBytes/CacheCompress/Peers/Advertise/Join — configure tiers on the injected store instead")
		}
	}
	if opts.CacheDir == "" {
		if opts.CacheCompress {
			return nil, fmt.Errorf("server: CacheCompress requires CacheDir")
		}
		if opts.CacheDiskBytes != 0 {
			return nil, fmt.Errorf("server: CacheDiskBytes requires CacheDir")
		}
	}
	if opts.Join != "" && opts.Advertise == "" {
		return nil, fmt.Errorf("server: Join requires Advertise (the fleet needs a URL to reach this replica back)")
	}
	if len(opts.Peers) == 0 && opts.Advertise == "" {
		if opts.FleetProbeInterval != 0 {
			return nil, fmt.Errorf("server: FleetProbeInterval requires Peers or Advertise")
		}
		if opts.FleetBreakerThreshold != 0 {
			return nil, fmt.Errorf("server: FleetBreakerThreshold requires Peers or Advertise")
		}
	}
	opts = opts.withDefaults()
	advertise := fleet.NormalizeURL(opts.Advertise)
	var membership *fleet.Membership
	if advertise != "" || len(opts.Peers) > 0 {
		// A replica that will join through a seed (Options.Join) starts
		// *outside* its own member list: its URL enters the fleet only via
		// the announce at the end of JoinFleet, so an aborted join leaves
		// every view — including this replica's own — without it.
		initial := append([]string(nil), opts.Peers...)
		if opts.Join == "" {
			initial = append(initial, advertise)
		}
		membership = fleet.NewMembership(initial)
	}
	store := opts.Store
	var fl *fleet.Fleet
	if store == nil {
		tiers := []resultstore.Tier{resultstore.MemoryTier(opts.CacheEntries)}
		if opts.CacheDir != "" {
			var (
				disk resultstore.Tier
				err  error
			)
			if opts.CacheCompress {
				disk, err = resultstore.OpenChunkedDisk(opts.CacheDir, opts.CacheDiskBytes)
			} else {
				disk, err = resultstore.OpenDisk(opts.CacheDir, opts.CacheDiskBytes)
			}
			if err != nil {
				return nil, err
			}
			tiers = append(tiers, disk)
		}
		if membership != nil {
			peer := resultstore.NewPeerTier(opts.Peers, nil, 0)
			peer.UseMembership(membership, advertise)
			fl = fleet.New(without(membership.Members(), advertise), fleet.Options{
				ProbeInterval:    opts.FleetProbeInterval,
				BreakerThreshold: opts.FleetBreakerThreshold,
			})
			peer.UseFleet(fl)
			tiers = append(tiers, peer)
		}
		store = resultstore.Chain(tiers...)
	}
	s := &Server{
		opts:       opts,
		cache:      store,
		fleet:      fl,
		membership: membership,
		id:         newInstanceID(),
		advertise:  advertise,
		jobs:       newManager(opts.Workers, opts.QueueDepth, opts.JobTimeout),
		started:    time.Now().UTC(),
		client:     &http.Client{Timeout: 10 * time.Second},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if membership != nil {
		s.gossipPrev = membership.Members()
		// Every membership change re-targets the fleet view (this replica
		// never probes or routes to itself) and gossips the new snapshot to
		// the other members so the fleet converges without a coordinator.
		membership.OnChange(func(members []string, epoch uint64) {
			if s.fleet != nil {
				s.fleet.SetMembers(without(members, s.advertise))
			}
			s.propagate(members, epoch)
		})
	}
	if fl != nil {
		fl.Start()
	}
	publishExpvar(s)
	return s, nil
}

// without returns urls minus self (pass "" to copy).
func without(urls []string, self string) []string {
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		if u != self {
			out = append(out, u)
		}
	}
	return out
}

// Close stops the background goroutines (gossip, drain loop), the worker
// pool (canceling running jobs) and the fleet prober.
func (s *Server) Close() {
	s.cancel()
	s.jobs.close()
	if s.fleet != nil {
		s.fleet.Close()
	}
	s.wg.Wait()
}

// Stats is a point-in-time snapshot of the serving counters. Fleet is
// present only when the server has peers: one entry per peer with its
// breaker state and load instrumentation.
type Stats struct {
	Cache       resultstore.Stats    `json:"cache"`
	Fleet       []fleet.ReplicaStats `json:"fleet,omitempty"`
	QueueDepth  int                  `json:"queue_depth"`
	JobsTotal   uint64               `json:"jobs_total"`
	JobsRunning int                  `json:"jobs_running"`
	Simulations int64                `json:"simulations"`
	UptimeSec   float64              `json:"uptime_sec"`
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	total, active := s.jobs.counts()
	st := Stats{
		Cache:       s.cache.Stats(),
		QueueDepth:  s.jobs.depth(),
		JobsTotal:   total,
		JobsRunning: active,
		Simulations: s.simulations.Load(),
		UptimeSec:   time.Since(s.started).Seconds(),
	}
	if s.fleet != nil {
		st.Fleet = s.fleet.Snapshot()
	}
	return st
}

// current is the server expvar reads from; expvar registration is global and
// permanent, so it indirects through a pointer the newest Server owns.
var (
	current    atomic.Pointer[Server]
	expvarOnce sync.Once
)

func publishExpvar(s *Server) {
	current.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("cdcs_serve", expvar.Func(func() any {
			if srv := current.Load(); srv != nil {
				return srv.Stats()
			}
			return nil
		}))
	})
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/blob/{hash}", s.handleBlob)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	if s.membership != nil {
		mux.HandleFunc("POST /v1/join", s.handleJoin)
		mux.HandleFunc("POST /v1/leave", s.handleLeave)
		mux.HandleFunc("GET /v1/members", s.handleMembers)
		mux.HandleFunc("GET /v1/manifest", s.handleManifest)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone: nothing to do
}

// writeErr writes a {"error": ...} body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeStrict parses a JSON body, rejecting unknown fields and trailing
// garbage so request typos fail loudly instead of hashing to a surprise key.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("unexpected data after JSON body")
	}
	return nil
}

// compareResponse is the /v1/compare body. It is marshaled once and cached;
// cold and cached responses are the same bytes.
type compareResponse struct {
	Hash       string              `json:"hash"`
	Request    cdcs.CompareRequest `json:"request"`
	Comparison *cdcs.Comparison    `json:"comparison"`
}

// handleCompare runs (or serves from cache) one scheme comparison,
// synchronously. Identical in-flight requests coalesce onto one simulation.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req cdcs.CompareRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	canon, err := req.Canonical()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := canon.Hash()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Hot path: a cached hash proves an identical request already built and
	// simulated successfully, so hits skip mix construction entirely.
	if body, ok := s.cache.Get(hash); ok {
		writeCompare(w, hash, true, body)
		return
	}
	if err := canon.Mix.Validate(); err != nil { // benchmark names, without building the mix
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	body, hit, err := s.cache.Compute(r.Context(), hash, func() ([]byte, error) {
		job, err := s.jobs.submit("compare", hash, func(ctx context.Context, progress func(int, int)) ([]byte, error) {
			s.simulations.Add(1)
			cmp, err := canon.Run(cdcs.RunOptions{
				Parallelism: s.opts.SimParallelism,
				Context:     ctx,
				Progress:    progress,
			})
			if err != nil {
				return nil, err
			}
			return json.Marshal(compareResponse{Hash: hash, Request: canon, Comparison: cmp})
		})
		if err != nil {
			return nil, err
		}
		<-job.Done
		if jerr := job.terminalErr(); jerr != nil {
			// Keep the cause wrapped (errCanceled, DeadlineExceeded) so the
			// status-code switch below can classify it.
			return nil, fmt.Errorf("compare job %s: %w", job.ID, jerr)
		}
		return job.resultBytes(), nil
	})
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, errCanceled), errors.Is(err, context.Canceled):
		writeErr(w, http.StatusServiceUnavailable, "request canceled: %v", err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeCompare(w, hash, hit, body)
}

// writeCompare writes a /v1/compare success response. The body bytes are
// written verbatim, so cached and cold responses are identical.
func writeCompare(w http.ResponseWriter, hash string, hit bool, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Hash", hash)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	_, _ = w.Write(body)
}

// sweepCellView is one cell of a /v1/sweep response. Result carries the
// exact compareResponse bytes the cell's content address maps to, so a sweep
// cell is byte-identical to the equivalent /v1/compare response body — the
// two endpoints share one store namespace. The body is a pure function of
// the request (no provenance flags), so replaying a sweep on a warm replica
// — or after a restart onto the same cache directory — returns exactly the
// same bytes; cache provenance rides in the X-Cache and X-Cells-Cached
// response headers instead.
type sweepCellView struct {
	Index int `json:"index"`
	// Result is the cell's compareResponse (hash, canonical request,
	// comparison), verbatim from the shared store.
	Result json.RawMessage `json:"result"`
}

// sweepResponse is the /v1/sweep body.
type sweepResponse struct {
	Hash    string            `json:"hash"`
	Request cdcs.SweepRequest `json:"request"`
	Cells   []sweepCellView   `json:"cells"`
}

// handleSweep expands a config grid and evaluates it cell by cell,
// synchronously, as one queued job. Each cell is cached under its own
// CompareRequest hash — the same namespace /v1/compare uses — so a sweep
// overlapping a prior sweep (or prior compares) only simulates the cells the
// cache hasn't seen, and concurrent identical cells coalesce.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req cdcs.SweepRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	canon, err := req.Canonical()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := canon.Hash()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells, err := canon.Cells()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i, mix := range canon.Mixes { // benchmark names, without building the mixes
		if err := mix.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, "mix %d: %v", i, err)
			return
		}
	}

	// cachedCells is written by the job's worker goroutine and read by this
	// handler only after <-job.Done, which orders the accesses.
	cachedCells := 0
	job, err := s.jobs.submit("sweep", hash, func(ctx context.Context, progress func(int, int)) ([]byte, error) {
		views := make([]sweepCellView, len(cells))
		for i, cell := range cells {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cmp := func() ([]byte, error) {
				s.simulations.Add(1)
				res, err := cell.Request.Run(cdcs.RunOptions{
					Parallelism: s.opts.SimParallelism,
					Context:     ctx,
				})
				if err != nil {
					return nil, err
				}
				return json.Marshal(compareResponse{Hash: cell.Hash, Request: cell.Request, Comparison: res})
			}
			body, hit, err := s.cache.GetOrCompute(ctx, cell.Hash, cmp)
			if err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
			if hit {
				cachedCells++
			}
			views[i] = sweepCellView{Index: cell.Index, Result: json.RawMessage(body)}
			progress(i+1, len(cells))
		}
		return json.Marshal(sweepResponse{Hash: hash, Request: canon, Cells: views})
	})
	if err != nil { // queue full or shutting down
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	select {
	case <-job.Done:
	case <-r.Context().Done():
		// Client gone: stop pinning this handler goroutine. The job runs on
		// — every cell it finishes lands in the shared cache, so a retry of
		// the same sweep picks up where this one got to.
		return
	}
	if jerr := job.terminalErr(); jerr != nil {
		switch {
		case errors.Is(jerr, errCanceled), errors.Is(jerr, context.Canceled):
			writeErr(w, http.StatusServiceUnavailable, "sweep job %s canceled: %v", job.ID, jerr)
		case errors.Is(jerr, context.DeadlineExceeded):
			writeErr(w, http.StatusGatewayTimeout, "sweep job %s: %v", job.ID, jerr)
		default:
			writeErr(w, http.StatusInternalServerError, "sweep job %s: %v", job.ID, jerr)
		}
		return
	}
	// X-Cells-Cached reports how much of the grid the store already held;
	// X-Cache is "hit" only when no cell needed work.
	w.Header().Set("X-Cells-Cached", fmt.Sprintf("%d/%d", cachedCells, len(cells)))
	writeCompare(w, hash, cachedCells == len(cells), job.resultBytes())
}

// experimentResponse is the cached /v1/experiment result body (embedded in
// the job view's "result" field).
type experimentResponse struct {
	Hash    string                 `json:"hash"`
	Request cdcs.ExperimentRequest `json:"request"`
	Report  string                 `json:"report"`
}

// handleExperiment enqueues an experiment run as an async job; a cache hit
// completes instantly. 202 + job id while queued/running, 200 when done.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req cdcs.ExperimentRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.ID != "" && !cdcs.KnownExperiment(req.ID) {
		writeErr(w, http.StatusNotFound, "unknown experiment %q (see GET /v1/experiments)", req.ID)
		return
	}
	canon, err := req.Canonical()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := canon.Hash()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	if body, ok := s.cache.Get(hash); ok {
		job := s.jobs.completed("experiment", hash, body)
		writeJSON(w, http.StatusOK, job.view(true))
		return
	}
	job, err := s.jobs.submit("experiment", hash, func(ctx context.Context, progress func(int, int)) ([]byte, error) {
		// Compute coalesces with any identical in-flight run; only the
		// leader touches the engine.
		body, _, err := s.cache.Compute(ctx, hash, func() ([]byte, error) {
			s.simulations.Add(1)
			report, err := canon.Run(cdcs.RunOptions{
				Parallelism: s.opts.SimParallelism,
				Context:     ctx,
				Progress:    progress,
			})
			if err != nil {
				return nil, err
			}
			return json.Marshal(experimentResponse{Hash: hash, Request: canon, Report: report})
		})
		return body, err
	})
	if err != nil { // queue full or shutting down
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.view(false))
}

// handleExperiments lists what the service can run.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": cdcs.ExperimentIDs(),
		"schemes":     cdcs.SchemeNames(),
	})
}

// handleJobGet returns a job's status, or streams progress as SSE when the
// client asks for text/event-stream (or ?watch=1).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") || r.URL.Query().Get("watch") != "" {
		s.streamJob(w, r, job)
		return
	}
	writeJSON(w, http.StatusOK, job.view(true))
}

// streamJob writes SSE: a "job" snapshot on open, "progress" ticks while the
// job runs, and a terminal "done" event carrying the final job view.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotAcceptable, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	sub := job.subscribe()
	defer job.unsubscribe(sub)
	if !emit("job", job.view(false)) {
		return
	}
	for {
		select {
		case ev := <-sub:
			if !emit("progress", ev) {
				return
			}
		case <-job.Done:
			emit("done", job.view(true))
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobCancel cancels a queued or running job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !s.jobs.cancelJob(job) {
		writeJSON(w, http.StatusConflict, job.view(false)) // already terminal
		return
	}
	writeJSON(w, http.StatusAccepted, job.view(false))
}

// localGetter is the store surface the blob endpoint wants: a lookup that
// consults only this process's tiers. resultstore.TierChain implements it;
// an injected store that contains remote tiers should too, or its blob
// lookups would cascade across the fleet.
type localGetter interface {
	GetLocal(key string) ([]byte, bool)
}

// handleBlob serves one stored entry to a sibling replica, framed with the
// keyed blob envelope (resultstore.EncodeBlob) so the peer can verify both
// payload integrity and that the response answers the address it asked for.
// Only local tiers are consulted — a blob lookup never recurses into this
// replica's own peer tier — and the lookup is uncounted, so peer traffic
// does not skew this replica's hit/miss counters or reshape its working
// set.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if hash == "" || len(hash) > 128 {
		writeErr(w, http.StatusBadRequest, "bad content address %q", hash)
		return
	}
	var (
		val []byte
		ok  bool
	)
	if lg, isLocal := s.cache.(localGetter); isLocal {
		val, ok = lg.GetLocal(hash)
	} else {
		val, ok = s.cache.Get(hash)
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "no entry for %s", hash)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(resultstore.EncodeBlob(hash, val))
}

// handleHealthz is the liveness probe, and the carrier of this replica's
// identity and membership view: fleet probers parse the body for the
// instance id (a restarted process on a reused address is a *new* member —
// its record, breaker verdict included, must reset) and for the (members,
// epoch) snapshot, which is how a sweep coordinator discovers joins and
// drains without any membership endpoint of its own. A draining or drained
// replica answers 503 so probers steer traffic away, but the body still
// carries the membership view it is leaving behind.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch s.draining.Load() {
	case drainStateDraining:
		status, code = "draining", http.StatusServiceUnavailable
	case drainStateDrained:
		status, code = "drained", http.StatusServiceUnavailable
	}
	resp := map[string]any{
		"status":  status,
		"uptime":  time.Since(s.started).String(),
		"version": "v1",
		"id":      s.id,
	}
	if s.membership != nil {
		members, epoch := s.membership.Snapshot()
		resp["members"] = members
		resp["epoch"] = epoch
	}
	writeJSON(w, code, resp)
}

// handleMetrics emits the counters in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	line := func(name string, v any) {
		fmt.Fprintf(&b, "%s %v\n", name, v)
	}
	// Cache counters carry a tier label ("memory", plus "disk" when the
	// store is persistent and "peer" when it consults sibling replicas) so
	// dashboards can tell a RAM hit from a warm-start disk hit from a
	// peer-filled one. cdcs_cache_bytes is physical occupancy (compressed,
	// deduplicated for the chunked disk tier); cdcs_cache_logical_bytes is
	// the payload volume represented, so bytes/logical_bytes is the live
	// dedup+compression ratio.
	for _, tier := range st.Cache.Tiers {
		tl := func(name string, v any) {
			fmt.Fprintf(&b, "%s{tier=%q} %v\n", name, tier.Name, v)
		}
		tl("cdcs_cache_hits_total", tier.Hits)
		tl("cdcs_cache_misses_total", tier.Misses)
		tl("cdcs_cache_evictions_total", tier.Evictions)
		tl("cdcs_cache_entries", tier.Entries)
		tl("cdcs_cache_bytes", tier.Bytes)
		tl("cdcs_cache_logical_bytes", tier.LogicalBytes)
		tl("cdcs_cache_errors_total", tier.Errors)
	}
	line("cdcs_cache_coalesced_total", st.Cache.Coalesced)
	line("cdcs_cache_inflight", st.Cache.Inflight)
	// Fleet gauges carry a replica label (the peer's base URL) so a
	// dashboard shows each peer's breaker state (0 closed, 1 open, 2
	// half-open) next to the load signals the router steers by.
	for _, rep := range st.Fleet {
		rl := func(name string, v any) {
			fmt.Fprintf(&b, "%s{replica=%q} %v\n", name, rep.URL, v)
		}
		rl("cdcs_fleet_state", fleet.StateCode(rep.State))
		rl("cdcs_fleet_ewma_latency_ms", fmt.Sprintf("%.3f", rep.EWMALatencyMs))
		rl("cdcs_fleet_inflight", rep.Inflight)
		rl("cdcs_fleet_requests_total", rep.Requests)
		rl("cdcs_fleet_errors_total", rep.Errors)
		rl("cdcs_fleet_breaker_trips_total", rep.Trips)
	}
	// Membership gauges: the live member count and epoch, plus cumulative
	// joins/leaves the registry has seen (from announcements and adopted
	// snapshots alike) and drains this replica accepted.
	if s.membership != nil {
		members, epoch := s.membership.Snapshot()
		line("cdcs_fleet_members", len(members))
		line("cdcs_fleet_epoch", epoch)
		line("cdcs_fleet_joins_total", s.membership.Joins())
		line("cdcs_fleet_leaves_total", s.membership.Leaves())
	}
	line("cdcs_fleet_drains_total", s.drains.Load())
	line("cdcs_queue_depth", st.QueueDepth)
	line("cdcs_jobs_total", st.JobsTotal)
	line("cdcs_jobs_running", st.JobsRunning)
	line("cdcs_simulations_total", st.Simulations)
	line("cdcs_uptime_seconds", fmt.Sprintf("%.3f", st.UptimeSec))
	_, _ = w.Write([]byte(b.String()))
}
