// Command cdcs-serve exposes the simulator as an HTTP JSON service with a
// content-addressed result cache in front of a bounded job queue:
//
//	cdcs-serve                       # serve on :8080, memory-only cache
//	                                 # (4096 entries and 32 MiB at most), one
//	                                 # job per CPU
//	cdcs-serve -addr 127.0.0.1:0     # ephemeral port (printed on startup)
//	cdcs-serve -cache 100000 -cache-bytes 1073741824
//	                                 # a larger memory tier: bounded by both
//	                                 # entries and key+value bytes
//	cdcs-serve -cache-dir /var/cache/cdcs -cache-disk-bytes 4294967296
//	                                 # tiered cache: results persist across
//	                                 # restarts (warm replays simulate nothing)
//	cdcs-serve -cache-dir /var/cache/cdcs -cache-compress
//	                                 # disk tier stores content-defined chunks,
//	                                 # deduplicated and DEFLATE-compressed
//	cdcs-serve -peers http://10.0.0.2:8080,http://10.0.0.3:8080
//	                                 # local misses fetch finished entries from
//	                                 # sibling replicas before simulating; peers
//	                                 # are health-probed, breaker-gated, and
//	                                 # exported as cdcs_fleet_* metrics
//	cdcs-serve -peers ... -fleet-probe-interval 500ms -fleet-breaker-threshold 5
//	                                 # tune the probe period and how many
//	                                 # consecutive failures sideline a peer
//	cdcs-serve -peers ... -advertise http://10.0.0.1:8080
//	                                 # dynamic membership: this replica is a
//	                                 # first-class member; replicas join/leave
//	                                 # at runtime via POST /v1/join, /v1/leave,
//	                                 # /v1/drain, converging on one member list
//	cdcs-serve -addr 10.0.0.2:8080 -advertise auto -join http://10.0.0.1:8080
//	                                 # join an existing fleet warm: adopt its
//	                                 # member list, batch-fill the cache from
//	                                 # the seed's corpus manifest, then announce
//	                                 # (auto needs a concrete listen host; on a
//	                                 # wildcard address pass -advertise URL)
//	cdcs-serve -pprof                # opt-in net/http/pprof at /debug/pprof/
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/experiments
//	curl -s -X POST localhost:8080/v1/compare \
//	  -d '{"mix":{"kind":"random","seed":1,"n":16},"schemes":["S-NUCA","CDCS"],"seed":1}'
//	curl -s -X POST localhost:8080/v1/sweep \
//	  -d '{"mesh":[{"width":8,"height":8},{"width":16,"height":16}],
//	       "mixes":[{"kind":"random","seed":1,"n":16}],
//	       "schemes":["S-NUCA","CDCS"],"seed":1}'
//	curl -s -X POST localhost:8080/v1/experiment -d '{"id":"fig11","quick":true}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -sN 'localhost:8080/v1/jobs/j1?watch=1'   # SSE progress stream
//
// Identical requests are served from cache (byte-identical to a fresh run —
// simulation is bit-deterministic) and concurrent identical requests
// coalesce onto a single simulation. See /metrics for cache and queue
// counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cdcs/internal/fleet"
	"cdcs/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		cache     = flag.Int("cache", 4096, "memory-tier result cache capacity in entries (-cache-bytes bounds it as well)")
		memBytes  = flag.Int64("cache-bytes", server.DefaultCacheBytes, "memory-tier size cap in key+value bytes, LRU-evicted past it; each of 16 shards holds 1/16 of it but keeps its newest entry (<=0 = default)")
		cacheDir  = flag.String("cache-dir", "", "directory for the persistent disk cache tier (empty = memory only)")
		diskBytes = flag.Int64("cache-disk-bytes", server.DefaultCacheDiskBytes, "disk-tier size cap in bytes, LRU-evicted past it (requires -cache-dir; <0 = uncapped)")
		compress  = flag.Bool("cache-compress", false, "store the disk tier chunked: content-defined chunks, SHA-256 dedup, DEFLATE compression (requires -cache-dir)")
		peers     = flag.String("peers", "", "comma-separated sibling replica base URLs; local misses fetch entries from the fleet before simulating")
		advertise = flag.String("advertise", "", "this replica's own base URL as peers reach it (\"auto\" = derive from the bound listen address, which must not be a wildcard); makes fleet membership dynamic: join/leave/drain endpoints active")
		join      = flag.String("join", "", "seed peer base URL to join the fleet through at startup: adopt its member list, warm-fill the cache from its corpus manifest, then announce -advertise (requires -advertise)")

		probeInterval    = flag.Duration("fleet-probe-interval", 0, "health-probe period over the peer members (0 = default 2s, negative disables probing; requires -peers or -advertise)")
		breakerThreshold = flag.Int("fleet-breaker-threshold", 0, "consecutive failures that open a peer's circuit breaker (0 = default 3; requires -peers or -advertise)")

		queue   = flag.Int("queue", 256, "job queue depth (submissions beyond it get 503)")
		workers = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		jobs    = flag.Int("j", 0, "max parallel simulation jobs per request (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 15*time.Minute, "per-job timeout (0 = none)")
		pprof   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ (off by default; enable only on trusted networks)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cdcs-serve: unexpected arguments: %v\n", flag.Args())
		flag.PrintDefaults()
		return 2
	}
	if *cacheDir == "" {
		if *compress {
			fmt.Fprintln(os.Stderr, "cdcs-serve: -cache-compress requires -cache-dir")
			return 2
		}
		set := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "cache-disk-bytes" {
				set = true
			}
		})
		if set {
			fmt.Fprintln(os.Stderr, "cdcs-serve: -cache-disk-bytes requires -cache-dir")
			return 2
		}
		// The flag default only applies to a disk tier; without one there
		// is no cap to pass.
		*diskBytes = 0
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if len(peerList) == 0 {
			fmt.Fprintln(os.Stderr, "cdcs-serve: -peers lists no usable URLs")
			return 2
		}
	}
	// Every replica's member list starts from -peers and -advertise, and a
	// replica whose list holds a junk URL gossips snapshots its peers refuse.
	for _, p := range peerList {
		if !fleet.ValidMemberURL(p) {
			fmt.Fprintf(os.Stderr, "cdcs-serve: -peers entry %q is not an absolute http or https URL with a host\n", p)
			return 2
		}
	}
	if *advertise != "" && *advertise != "auto" && !fleet.ValidMemberURL(*advertise) {
		fmt.Fprintf(os.Stderr, "cdcs-serve: -advertise %q is not \"auto\" or an absolute http or https URL with a host\n", *advertise)
		return 2
	}
	if len(peerList) == 0 && *advertise == "" {
		var fleetFlags []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fleet-probe-interval", "fleet-breaker-threshold":
				fleetFlags = append(fleetFlags, "-"+f.Name)
			}
		})
		if len(fleetFlags) > 0 {
			verb := "requires"
			if len(fleetFlags) > 1 {
				verb = "require"
			}
			fmt.Fprintf(os.Stderr, "cdcs-serve: %s %s -peers or -advertise\n", strings.Join(fleetFlags, ", "), verb)
			return 2
		}
	}
	if *join != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "cdcs-serve: -join requires -advertise")
		return 2
	}

	// Listen before building the server: with -advertise auto the advertised
	// URL is derived from the bound address (so ephemeral ports work), and a
	// -join replica must be reachable the moment it announces itself.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdcs-serve: listen: %v\n", err)
		return 1
	}
	if *advertise == "auto" {
		// A wildcard address ([::]:N) is every host's own loopback to its
		// peers, and two hosts on one port would collide as one member.
		if ln.Addr().(*net.TCPAddr).IP.IsUnspecified() {
			_ = ln.Close()
			fmt.Fprintf(os.Stderr, "cdcs-serve: -advertise auto cannot derive a reachable URL from wildcard address %s; pass -advertise http://HOST:PORT\n", ln.Addr())
			return 2
		}
		*advertise = "http://" + ln.Addr().String()
	}

	jobTimeout := *timeout
	if jobTimeout == 0 {
		jobTimeout = -1 // flag 0 = no timeout; Options treats 0 as "default"
	}
	srv, err := server.New(server.Options{
		CacheEntries:          *cache,
		CacheBytes:            *memBytes,
		CacheDir:              *cacheDir,
		CacheDiskBytes:        *diskBytes,
		CacheCompress:         *compress,
		Peers:                 peerList,
		Advertise:             *advertise,
		Join:                  *join,
		FleetProbeInterval:    *probeInterval,
		FleetBreakerThreshold: *breakerThreshold,
		QueueDepth:            *queue,
		Workers:               *workers,
		JobTimeout:            jobTimeout,
		SimParallelism:        *jobs,
		Pprof:                 *pprof,
	})
	if err != nil {
		_ = ln.Close()
		fmt.Fprintf(os.Stderr, "cdcs-serve: %v\n", err)
		return 1
	}
	defer srv.Close()
	if *cacheDir != "" {
		mode := "persistent"
		if *compress {
			mode = "chunked persistent"
		}
		fmt.Fprintf(os.Stderr, "cdcs-serve: %s result cache at %s\n", mode, *cacheDir)
	}
	if len(peerList) > 0 {
		fmt.Fprintf(os.Stderr, "cdcs-serve: peer tier over %s (health-checked; see cdcs_fleet_* in /metrics)\n",
			strings.Join(peerList, ", "))
	}
	if *advertise != "" {
		fmt.Fprintf(os.Stderr, "cdcs-serve: dynamic membership as %s (POST /v1/join, /v1/leave, /v1/drain)\n", *advertise)
	}
	// The resolved address goes to stdout so scripts and the end-to-end test
	// (e2e_test.go) can scrape the ephemeral port.
	fmt.Printf("cdcs-serve: listening on %s\n", ln.Addr())

	if *pprof {
		fmt.Fprintln(os.Stderr, "cdcs-serve: pprof handlers mounted at /debug/pprof/")
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	// Warm join, now that the listener is accepting: adopt the seed's member
	// list, batch-fill the cache from its corpus manifest, announce
	// -advertise. A failed join exits — a replica that cannot complete the
	// handshake must not linger half-joined.
	if *join != "" {
		jctx, jcancel := context.WithTimeout(ctx, 2*time.Minute)
		st, jerr := srv.JoinFleet(jctx)
		jcancel()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "cdcs-serve: %v\n", jerr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "cdcs-serve: joined %d-member fleet via %s: warmed %d/%d manifest entries (%d already present, %d failed) in %s\n",
			st.Members, st.Seed, st.Filled, st.Keys, st.Present, st.Failed, st.Elapsed.Round(time.Millisecond))
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "cdcs-serve: %v\n", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	// Graceful drain. Cancel jobs first: handlers blocked on a job (a
	// synchronous compare, an SSE watcher) only return once their job
	// reaches a terminal state, and http.Server.Shutdown waits for exactly
	// those handlers — in the other order a long simulation would pin
	// Shutdown until its timeout and turn every drain into a failure.
	fmt.Fprintln(os.Stderr, "cdcs-serve: shutting down")
	srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cdcs-serve: shutdown: %v\n", err)
		return 1
	}
	return 0
}
