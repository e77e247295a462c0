package main

import (
	"fmt"
	"sort"
	"time"

	"cdcs"
	"cdcs/internal/resultstore"
	"cdcs/internal/server"
)

// scale sizes the parts of a run that are not the timed window.
type scale struct {
	// An untraced run sets up at least setups times, and more, up to
	// maxSetups, until setupTime has passed; setup_s is their median.
	setups     int
	setupTime  time.Duration
	warmup     float64 // share of each workload's full warm-up that runs
	corpus     int     // warm-mixed corpus cells
	memEntries int     // warm-mixed memory-tier entries (corpus/8)
	decompose  int     // cold cells the traced run decomposes (paper, warm)
	kiloCells  int     // cold cells the traced kilotile run decomposes
	fleetSweep int     // traced fleet sweeps whose new cells are decomposed
}

// maxSetups bounds the set-ups of one run.
const maxSetups = 15

// fullScale keeps a run's set-up, warm-up and verification to 5-25 s on a
// 2-core machine, beside a 15 s window.
var fullScale = scale{setups: 3, setupTime: time.Second, warmup: 1, corpus: 256, memEntries: 32, decompose: 64, kiloCells: 10, fleetSweep: 8}

// warm is n scaled to sc's warm-up share, at least 1.
func (sc scale) warm(n int) int { return max(1, int(float64(n)*sc.warmup)) }

// workloadDef is one named traffic mix.
type workloadDef struct {
	name, why string
	cmp       *compareWorkload // nil for the fleet workload
	// warmup is how many requests (sweeps on fleet-sweep) from the start of
	// the stream run untimed before the window opens.
	warmup    int
	decompose int
	// tail is the percentile latency_tail_ms reports. It leaves at least ten
	// samples beyond it at the fewest samples a 15 s window gives on the
	// reference machine, slow runs included. It is fixed per workload, not
	// re-picked per run, so a change that moves the sample count across a
	// threshold cannot change what the metric means. Where a window would
	// support p99 the tail is p95: other tenants of a shared machine stall a
	// few percent of requests at times, and such stalls move p99 further
	// than p95 (measured in bench/README.md).
	tail int
}

// freshFrac is the share of warm-mixed requests that are new cells.
const freshFrac = 0.1

func workloads(sc scale) []workloadDef {
	z := newZipf(sc.corpus, 0.99)
	return []workloadDef{
		{
			name: "paper-cold",
			why:  "every cell new at paper scale (8x8, five schemes): simulation layers, store barely touched",
			cmp: &compareWorkload{
				options: func(string) server.Options { return server.Options{} },
				request: func(seed int64, i int) (cdcs.CompareRequest, bool) { return paperCell(seed, tagMain, i), true },
				setup: func(seed int64) []cdcs.CompareRequest {
					out := make([]cdcs.CompareRequest, 16)
					for i := range out {
						out[i] = paperCell(seed, tagSetup, i)
					}
					return out
				},
				// ~650 cells/s: about 35 candidates per window, 24 verified.
				verifyMod: 256,
			},
			// About 4 s: a fresh server runs up to a third slower in its first
			// seconds, while its heap and memory tier grow and the garbage
			// collector runs several times as often as it does later.
			warmup:    sc.warm(2048),
			decompose: sc.decompose,
			tail:      95, // 5,000-10,000 requests
		},
		{
			name: "warm-mixed",
			why:  "Zipf(0.99) reads of a stored corpus plus 10% fresh writes: hashing, HTTP/JSON and the tier chain",
			cmp: &compareWorkload{
				options: func(dir string) server.Options {
					return server.Options{CacheDir: dir, CacheCompress: true, CacheEntries: sc.memEntries}
				},
				request: func(seed int64, i int) (cdcs.CompareRequest, bool) { return warmCell(seed, i, z, freshFrac) },
				setup: func(seed int64) []cdcs.CompareRequest {
					out := make([]cdcs.CompareRequest, sc.corpus)
					for c := range out {
						out[c] = corpusCell(seed, c)
					}
					return out
				},
				verifyMod: 512,
			},
			// About 5 s: the hot keys reach the memory tier, and read latency,
			// which falls by a quarter over the first seconds, levels off.
			warmup:    sc.warm(4096),
			decompose: sc.decompose,
			tail:      95, // 9,000-20,000 requests
		},
		{
			name: "kilotile-cold",
			why:  "new cells from 32x32 to 128x128 tiles: topology construction and flat vs hierarchical placement",
			cmp: &compareWorkload{
				options: func(string) server.Options { return server.Options{} },
				request: func(seed int64, i int) (cdcs.CompareRequest, bool) { return kiloCell(seed, tagMain, i), true },
				// The smallest size only: set-up stays short.
				setup: func(seed int64) []cdcs.CompareRequest {
					return []cdcs.CompareRequest{kiloCell(seed, tagSetup, 0)}
				},
				verifyMod: 16,
			},
			// One cell of each size: the process has grown to its peak
			// footprint before the window opens.
			warmup:    sc.warm(len(kiloSizes)),
			decompose: sc.kiloCells,
			tail:      75, // 40-55 cells
		},
		{
			name: "fleet-sweep",
			why:  "overlapping sweeps over three peered replicas: fan-out routing, the peer tier and /v1/blob",
			// About 3 s, after which sweep latency levels off.
			warmup:    sc.warm(128),
			decompose: sc.fleetSweep,
			tail:      90, // 700-1,100 sweeps
		},
	}
}

func findWorkload(name string, sc scale) (workloadDef, bool) {
	for _, w := range workloads(sc) {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names a reported metric, its unit and which direction is
// better.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, what a user of the system
// sees. The latency tail is each workload's fixed tail percentile
// (workloadDef.tail), printed with its sample count.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "cells/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"cpu_ms_per_cell", "ms", "lower"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// cross reads 0.
var perLayer = []metricDef{
	{"request.hash_us.p50", "us", "lower"},
	{"request.cells_ms.p50", "ms", "lower"},
	{"server.handler_ms.p50", "ms", "lower"},
	{"server.handler_ms.p99", "ms", "lower"},
	{"server.http_ms.p50", "ms", "lower"},
	{"server.queue_wait_ms.p50", "ms", "lower"},
	{"store.memory.get_us.p50", "us", "lower"},
	{"store.memory.hit_ratio", "ratio", "higher"},
	{"store.disk.get_ms.p50", "ms", "lower"},
	{"store.disk.get_ms.p99", "ms", "lower"},
	{"store.disk.put_ms.p50", "ms", "lower"},
	{"store.disk.hit_ratio", "ratio", "higher"},
	{"store.disk.evictions", "count", "lower"},
	{"store.disk.errors", "count", "lower"},
	{"store.disk.stored_over_logical", "ratio", "lower"},
	{"store.coalesced", "count", "higher"},
	{"fanout.rpc_ms.p50", "ms", "lower"},
	{"fanout.rpc_ms.p99", "ms", "lower"},
	{"fanout.retried_frac", "ratio", "lower"},
	{"fanout.load_max_over_mean", "ratio", "lower"},
	{"fleet.breaker_trips", "count", "lower"},
	{"fleet.sims_per_new_cell", "ratio", "lower"},
	{"peer.blob_ms.p50", "ms", "lower"},
	{"peer.fetch_ms.p50", "ms", "lower"},
	{"peer.hit_ratio", "ratio", "higher"},
	{"peer.blob_404_per_sim", "ratio", "lower"},
	{"mesh.new_ms.p50", "ms", "lower"},
	{"workload.build_ms.p50", "ms", "lower"},
	{"policy.build_ms.snuca", "ms", "lower"},
	{"policy.build_ms.rnuca", "ms", "lower"},
	{"policy.build_ms.jigsaw_c", "ms", "lower"},
	{"policy.build_ms.jigsaw_r", "ms", "lower"},
	{"policy.build_ms.cdcs", "ms", "lower"},
	{"core.alloc_ms", "ms", "lower"},
	{"core.vc_place_ms", "ms", "lower"},
	{"core.thread_place_ms", "ms", "lower"},
	{"core.data_place_ms", "ms", "lower"},
	{"core.trades", "count", "lower"},
	{"perfmodel.evaluate_ms.p50", "ms", "lower"},
	{"perfmodel.ws_gmean_cdcs", "ratio", "higher"},
	{"encode.marshal_ms.p50", "ms", "lower"},
	{"cell_ms.p50", "ms", "lower"},
	{"share.request", "ratio", "lower"},
	{"share.http", "ratio", "lower"},
	{"share.fanout", "ratio", "lower"},
	{"share.queue_wait", "ratio", "lower"},
	{"share.store", "ratio", "lower"},
	{"share.peer", "ratio", "lower"},
	{"share.mesh", "ratio", "lower"},
	{"share.workload", "ratio", "lower"},
	{"share.policy_other", "ratio", "lower"},
	{"share.core_alloc", "ratio", "lower"},
	{"share.core_place", "ratio", "lower"},
	{"share.perfmodel", "ratio", "lower"},
	{"share.encode", "ratio", "lower"},
	{"gc.cpu_frac", "ratio", "lower"},
	{"alloc_mb_per_cell", "MB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// report is one workload run's outcome.
type report struct {
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	defs      []metricDef
	notes     []string
	spans     []span
}

func (r *report) add(w *windowResult) {
	r.attempted += w.attempted + w.verified
	r.failed += w.failed
	r.errs = append(r.errs, w.errs...)
}

// runWorkload runs one workload: untraced, the end-to-end metrics; traced,
// an untraced window then a traced replay of the same stream, the
// per-layer metrics.
func runWorkload(def workloadDef, seed int64, window time.Duration, traced bool, sc scale) (*report, error) {
	if traced {
		return runTraced(def, seed, window, sc)
	}
	r := &report{values: map[string]float64{}, defs: endToEnd}
	var (
		res    *windowResult
		setups []float64
		warm   time.Duration
		err    error
	)
	what := "requests"
	if def.cmp == nil {
		what = "sweeps"
		var f *fleetStack
		if f, setups, err = setUp(sc, func() (*fleetStack, time.Duration, error) { return startFleet(seed, nil) }); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := f.warmUp(seed, def.warmup); err != nil {
			return nil, err
		}
		warm = time.Since(t0)
		res, _ = fleetWindow(f, seed, def.warmup+1, window, nil, 0)
		f.close()
	} else {
		var st *compareStack
		if st, setups, err = setUp(sc, func() (*compareStack, time.Duration, error) { return def.cmp.start(seed, nil) }); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := def.cmp.warmUp(st, seed, def.warmup); err != nil {
			return nil, err
		}
		warm = time.Since(t0)
		res = def.cmp.window(st, seed, def.warmup, window, nil, nil)
		st.close()
	}
	r.add(res)
	if res.cells == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window (%d failed: %v)", def.name, res.failed, res.errs)
	}
	sort.Float64s(setups)
	v := r.values
	v["setup_s"] = percentile(setups, 50)
	v["cells_per_s"] = res.rate()
	v["latency_p50_ms"] = percentile(res.lats, 50)
	v["latency_tail_ms"] = percentile(res.lats, float64(def.tail))
	v["rss_peak_mb"] = peakRSSMB()
	v["cpu_ms_per_cell"] = ms(res.cpu) / float64(res.cells)
	n := len(res.lats)
	p := tailPercentile(n)
	r.notes = append(r.notes,
		fmt.Sprintf("latency_tail_ms is p%d of %d samples; latency_p50_ms is p50 of the same; p%d is %.4g ms",
			def.tail, n, p, percentile(res.lats, float64(p))))
	if n*(100-def.tail) < 1000 {
		r.notes = append(r.notes, fmt.Sprintf("warning: fewer than ten samples beyond p%d; this window supports p%d", def.tail, p))
	}
	r.notes = append(r.notes,
		fmt.Sprintf("setup_s is the median of %d set-ups: %.4f", len(setups), setups),
		fmt.Sprintf("warm-up before the window: %d %s in %.2f s", def.warmup, what, warm.Seconds()),
		fmt.Sprintf("%d cells in %.2f s (a %.0f s window and the operations in flight at its end), %d in-process verifications",
			res.cells, res.stop.Sub(res.start).Seconds(), window.Seconds(), res.verified))
	return r, nil
}

// setUp starts a stack the way a fresh deployment would, as many times as
// sc asks, and keeps the last one. It returns the set-up times.
func setUp[S interface{ close() }](sc scale, start func() (S, time.Duration, error)) (S, []float64, error) {
	var (
		last  S
		times []float64
	)
	t0 := time.Now()
	for i := 0; i < sc.setups || (i < maxSetups && time.Since(t0) < sc.setupTime); i++ {
		st, d, err := start()
		if i > 0 {
			last.close()
		}
		if err != nil {
			return st, nil, err
		}
		times = append(times, d.Seconds())
		last = st
	}
	return last, times, nil
}

// runTraced measures an untraced window (for the overhead baseline, GC and
// allocation), then replays the same stream on a fresh traced stack,
// decomposes its first cold cells in-process and analyzes the spans.
func runTraced(def workloadDef, seed int64, window time.Duration, sc scale) (*report, error) {
	r := &report{values: map[string]float64{}, defs: perLayer}
	rec := newRecorder()
	var (
		base, res *windowResult
		stats     resultstore.Stats
		tally     *fleetTally
		sims      int64
		cells     []*decomposed
		perRoot   = 1
	)
	if def.cmp == nil {
		perRoot = 16
		first := def.warmup + 1
		f, _, err := startFleet(seed, nil)
		if err != nil {
			return nil, err
		}
		if err := f.warmUp(seed, def.warmup); err != nil {
			return nil, err
		}
		base, _ = fleetWindow(f, seed, first, window, nil, 0)
		f.close()
		if f, _, err = startFleet(seed, rec); err != nil {
			return nil, err
		}
		if err := f.warmUp(seed, def.warmup); err != nil {
			return nil, err
		}
		rec.reset()
		before := f.cacheStats()
		res, tally = fleetWindow(f, seed, first, window, rec, def.decompose)
		stats = since(f.cacheStats(), before)
		for _, s := range f.srvs {
			for _, rep := range s.Stats().Fleet {
				tally.trips += rep.Trips
			}
		}
		sims = tally.sims
		f.close()
		hashes := make([]string, 0, len(tally.cells))
		for h := range tally.cells {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)
		for _, h := range hashes {
			d, err := decompose(tally.cells[h])
			if err != nil {
				return nil, err
			}
			if err := sameAsInProcess(tally.cells[h], d.body); err != nil {
				res.fail("decomposed cell %.12s: %v", h, err)
			}
			cells = append(cells, d)
		}
	} else {
		st, _, err := def.cmp.start(seed, nil)
		if err != nil {
			return nil, err
		}
		if err := def.cmp.warmUp(st, seed, def.warmup); err != nil {
			return nil, err
		}
		base = def.cmp.window(st, seed, def.warmup, window, nil, nil)
		st.close()
		if st, _, err = def.cmp.start(seed, rec); err != nil {
			return nil, err
		}
		if err := def.cmp.warmUp(st, seed, def.warmup); err != nil {
			return nil, err
		}
		rec.reset()
		s0 := st.srv.Stats()
		cold := def.cmp.coldIndices(seed, def.warmup, def.decompose)
		res = def.cmp.window(st, seed, def.warmup, window, rec, cold)
		s := st.srv.Stats()
		stats, sims = since(s.Cache, s0.Cache), s.Simulations-s0.Simulations
		st.close()
		idx := make([]int, 0, len(cold))
		for i := range cold {
			if _, ok := res.bodies[i]; ok {
				idx = append(idx, i)
			}
		}
		sort.Ints(idx)
		for _, i := range idx {
			req, _ := def.cmp.request(seed, i)
			d, err := decompose(req)
			if err != nil {
				return nil, err
			}
			if string(d.body) != string(res.bodies[i]) {
				res.fail("decomposed cell %d differs from the served body", i)
			}
			cells = append(cells, d)
		}
	}
	r.add(base)
	r.add(res)
	if base.cells == 0 || res.cells == 0 {
		return nil, fmt.Errorf("%s: no operation completed in a window (%d failed: %v)", def.name, r.failed, r.errs)
	}
	lr := analyze(rec.snapshot(), cells, perRoot)
	r.spans, r.notes = lr.spans, lr.notes
	v := r.values
	for k, x := range lr.values {
		v[k] = x
	}
	mem, disk, peer := stats.Tier("memory"), stats.Tier("disk"), stats.Tier("peer")
	v["store.memory.hit_ratio"] = ratio(float64(mem.Hits), float64(mem.Hits+mem.Misses))
	v["store.disk.hit_ratio"] = ratio(float64(disk.Hits), float64(disk.Hits+disk.Misses))
	v["store.disk.evictions"] = float64(disk.Evictions)
	v["store.disk.errors"] = float64(disk.Errors)
	v["store.disk.stored_over_logical"] = ratio(float64(disk.Bytes), float64(disk.LogicalBytes))
	v["store.coalesced"] = float64(stats.Coalesced)
	v["peer.hit_ratio"] = ratio(float64(peer.Hits), float64(peer.Hits+peer.Misses))
	v["peer.blob_404_per_sim"] = ratio(v["peer.blob_404s"], float64(sims))
	delete(v, "peer.blob_404s")
	if tally == nil {
		tally = &fleetTally{}
	}
	v["fanout.retried_frac"] = ratio(float64(tally.retried), float64(res.cells))
	var mx, sum float64
	for _, n := range tally.served {
		mx = max(mx, float64(n))
		sum += float64(n)
	}
	v["fanout.load_max_over_mean"] = ratio(mx, sum/replicas)
	v["fleet.breaker_trips"] = float64(tally.trips)
	v["fleet.sims_per_new_cell"] = ratio(float64(tally.sims), float64(tally.newCells))
	v["gc.cpu_frac"] = base.gcFrac
	v["alloc_mb_per_cell"] = float64(base.alloc) / (1 << 20) / float64(base.cells)
	untracedRate, tracedRate := base.rate(), res.rate()
	v["trace.overhead_frac"] = 1 - tracedRate/untracedRate
	r.notes = append(r.notes,
		fmt.Sprintf("untraced %.1f cells/s, traced %.1f cells/s; %d cells decomposed; %d spans",
			untracedRate, tracedRate, len(cells), len(lr.spans)))
	return r, nil
}

// since is after's counters less before's, tier by tier: what a window
// added. Occupancy (entries, bytes) is after's.
func since(after, before resultstore.Stats) resultstore.Stats {
	out := resultstore.Stats{Coalesced: after.Coalesced - before.Coalesced, Inflight: after.Inflight}
	for _, t := range after.Tiers {
		b := before.Tier(t.Name)
		t.Hits -= b.Hits
		t.Misses -= b.Misses
		t.Evictions -= b.Evictions
		t.Errors -= b.Errors
		out.Tiers = append(out.Tiers, t)
	}
	return out
}

// addStats sums store counters across replicas, tier by tier.
func addStats(a, b resultstore.Stats) resultstore.Stats {
	for _, t := range b.Tiers {
		found := false
		for i := range a.Tiers {
			if a.Tiers[i].Name == t.Name {
				x := &a.Tiers[i]
				x.Hits += t.Hits
				x.Misses += t.Misses
				x.Evictions += t.Evictions
				x.Entries += t.Entries
				x.Bytes += t.Bytes
				x.LogicalBytes += t.LogicalBytes
				x.Errors += t.Errors
				found = true
			}
		}
		if !found {
			a.Tiers = append(a.Tiers, t)
		}
	}
	a.Coalesced += b.Coalesced
	a.Inflight += b.Inflight
	return a
}
