package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// layerReport is what the span analysis of one traced window yields: the
// per-layer metrics it can compute, human-readable lines for values that
// are not metrics (per mesh size), and the joined span list to write out.
type layerReport struct {
	values map[string]float64
	notes  []string
	spans  []span
	// queueWait holds handler time minus the decomposed compute time, per
	// decomposed cell.
	queueWait []float64
}

// analyze joins the spans of a traced window into one tree per client
// operation and derives the per-layer metrics. cells are the decomposed
// cold cells; each is grafted under the handler that simulated it.
func analyze(spans []span, cells []*decomposed, cellsPerRoot int) *layerReport {
	lr := &layerReport{values: map[string]float64{}}
	var maxID int64
	handlers := map[string][]int{} // addr -> indices of server.handler spans
	fetches := map[string][]int{}  // addr -> indices of peer.fetch spans
	for i, s := range spans {
		maxID = max(maxID, s.ID)
		switch s.Name {
		case "server.handler":
			handlers[s.Addr] = append(handlers[s.Addr], i)
		case "peer.fetch":
			fetches[s.Addr] = append(fetches[s.Addr], i)
		}
	}
	// Join spans recorded without a parent to the span that was working on
	// the same content address at the time: tier operations to the handler
	// on their replica, a peer fetch to the handler that missed locally, and
	// a blob read served by a sibling to the fetch that asked for it (or,
	// untraced fetches aside, to the requesting handler).
	within := func(s span, idx []int, ok func(p span) bool) int64 {
		for _, i := range idx {
			if p := spans[i]; p.Start <= s.Start && p.End >= s.End && ok(p) {
				return p.ID
			}
		}
		return 0
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "store."):
			s.Parent = within(*s, handlers[s.Addr], func(h span) bool { return h.Replica == s.Replica })
		case s.Name == "peer.fetch":
			s.Parent = within(*s, handlers[s.Addr], func(span) bool { return true })
		case s.Name == "peer.blob":
			if s.Parent = within(*s, fetches[s.Addr], func(span) bool { return true }); s.Parent == 0 {
				s.Parent = within(*s, handlers[s.Addr], func(h span) bool { return h.Replica != s.Replica })
			}
		}
	}
	// Graft each decomposed cell under the handler that simulated it, ending
	// where the handler started writing the result through to the store (or
	// at the handler's end).
	grafted := map[int64]bool{}
	side := map[int64]string{} // handler id -> mesh size of its grafted cell
	for _, d := range cells {
		hi := -1
		for _, i := range handlers[d.hash] {
			if spans[i].Cache == "miss" {
				hi = i
				break
			}
		}
		if hi < 0 || grafted[spans[hi].ID] {
			continue
		}
		h := spans[hi]
		anchor := h.End
		for _, s := range spans {
			if s.Parent == h.ID && strings.HasSuffix(s.Name, ".put") {
				anchor = min(anchor, s.Start)
			}
		}
		shift := anchor - d.spans[0].End
		ids := map[int64]int64{}
		for _, ds := range d.spans {
			maxID++
			ids[ds.ID] = maxID
		}
		for _, ds := range d.spans {
			ns := ds
			ns.ID = ids[ds.ID]
			ns.Parent = ids[ds.Parent]
			if ds.Parent == 0 {
				ns.Parent = h.ID
			}
			ns.Start = max(ds.Start+shift, h.Start)
			ns.End = max(ds.End+shift, h.Start)
			spans = append(spans, ns)
		}
		grafted[h.ID] = true
		side[h.ID] = d.side
		lr.queueWait = append(lr.queueWait, max(0, ms(h.dur()-d.wall)))
	}
	lr.spans = spans
	t := newTree(spans)

	// Shares: each root's wall time is split among layers (tree.attribute).
	// Roots whose cold cells were all decomposed are explained; explained
	// roots stand in for the unexplained ones of their kind (with or without
	// a cold cell) by weight, so the sample of decomposed cells represents
	// every simulation in the window.
	type rootInfo struct {
		s         span
		cold      bool
		explained bool
		side      string
	}
	var roots []rootInfo
	for _, s := range spans {
		if s.Name != "client.request" && s.Name != "client.sweep" {
			continue
		}
		ri := rootInfo{s: s, explained: true}
		var walk func(id int64)
		walk = func(id int64) {
			for _, c := range t.children[id] {
				if c.Name == "server.handler" && c.Cache == "miss" {
					ri.cold = true
					if !grafted[c.ID] {
						ri.explained = false
					}
					ri.side = side[c.ID]
				}
				walk(c.ID)
			}
		}
		walk(s.ID)
		roots = append(roots, ri)
	}
	total, explained := map[bool]float64{}, map[bool]float64{}
	for _, r := range roots {
		total[r.cold]++
		if r.explained {
			explained[r.cold]++
		}
	}
	layer := map[string]float64{}
	var wall float64
	bySide := map[string]map[string]float64{}
	sideWall := map[string]float64{}
	for _, r := range roots {
		if !r.explained {
			continue
		}
		w := total[r.cold] / explained[r.cold]
		attr := t.attribute(r.s)
		for l, v := range attr {
			layer[l] += w * v
		}
		wall += w * float64(r.s.dur())
		if r.side != "" && cellsPerRoot == 1 {
			if bySide[r.side] == nil {
				bySide[r.side] = map[string]float64{}
			}
			for l, v := range attr {
				bySide[r.side][l] += v
			}
			sideWall[r.side] += float64(r.s.dur())
		}
	}
	for _, l := range shareLayers {
		lr.values["share."+l] = ratio(layer[l], wall)
	}
	sides := make([]string, 0, len(bySide))
	for s := range bySide {
		sides = append(sides, s)
	}
	sort.Slice(sides, func(i, j int) bool { return sideLess(sides[i], sides[j]) })
	for _, sd := range sides {
		var parts []string
		for _, l := range shareLayers {
			if v := ratio(bySide[sd][l], sideWall[sd]); v >= 0.0005 {
				parts = append(parts, fmt.Sprintf("%s %.3f", l, v))
			}
		}
		lr.notes = append(lr.notes, fmt.Sprintf("share at %s: %s", sd, strings.Join(parts, ", ")))
	}

	// Span-duration metrics.
	durs := map[string][]float64{}
	var http []float64
	blob404 := 0
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		if s.Name == "peer.blob" && s.Status == 404 {
			blob404++
		}
		if s.Name != "server.handler" || s.Parent == 0 {
			continue
		}
		p, ok := t.byID[s.Parent]
		if !ok {
			continue
		}
		d := p.dur() - s.dur()
		for _, c := range t.children[p.ID] {
			if c.Name == "request.hash" {
				d -= c.dur()
			}
		}
		http = append(http, ms(d))
	}
	v := lr.values
	if h := durs["request.hash"]; len(h) > 0 {
		v["request.hash_us.p50"] = 1000 * percentile(h, 50)
	} else if c := durs["request.cells"]; len(c) > 0 {
		// A sweep hashes its cells while expanding them.
		v["request.hash_us.p50"] = 1000 * percentile(c, 50) / float64(cellsPerRoot)
	}
	v["request.cells_ms.p50"] = percentile(durs["request.cells"], 50)
	v["server.handler_ms.p50"] = percentile(durs["server.handler"], 50)
	v["server.handler_ms.p99"] = percentile(durs["server.handler"], 99)
	v["server.http_ms.p50"] = percentile(http, 50)
	v["server.queue_wait_ms.p50"] = percentile(lr.queueWait, 50)
	v["store.memory.get_us.p50"] = 1000 * percentile(durs["store.memory.get"], 50)
	v["store.disk.get_ms.p50"] = percentile(durs["store.disk.get"], 50)
	v["store.disk.get_ms.p99"] = percentile(durs["store.disk.get"], 99)
	v["store.disk.put_ms.p50"] = percentile(durs["store.disk.put"], 50)
	v["fanout.rpc_ms.p50"] = percentile(durs["fanout.rpc"], 50)
	v["fanout.rpc_ms.p99"] = percentile(durs["fanout.rpc"], 99)
	v["peer.blob_ms.p50"] = percentile(durs["peer.blob"], 50)
	v["peer.fetch_ms.p50"] = percentile(durs["peer.fetch"], 50)
	v["peer.blob_404s"] = float64(blob404)

	lr.cellMetrics(cells)
	return lr
}

// sideLess orders "<W>x<H>" labels by tile count.
func sideLess(a, b string) bool {
	var aw, ah, bw, bh int
	fmt.Sscanf(a, "%dx%d", &aw, &ah)
	fmt.Sscanf(b, "%dx%d", &bw, &bh)
	return aw*ah < bw*bh
}

// cellMetrics derives the simulation-layer metrics from the decomposed
// cells: medians per cell overall, plus per-mesh-size lines.
func (lr *layerReport) cellMetrics(cells []*decomposed) {
	series := func(sel func(d *decomposed) time.Duration, only string) []float64 {
		var out []float64
		for _, d := range cells {
			if only == "" || d.side == only {
				out = append(out, ms(sel(d)))
			}
		}
		return out
	}
	type layerSel struct {
		name string
		sel  func(d *decomposed) time.Duration
	}
	layers := []layerSel{
		{"cell_ms", func(d *decomposed) time.Duration { return d.wall }},
		{"mesh.new_ms", func(d *decomposed) time.Duration { return d.mesh }},
		{"core.alloc_ms", func(d *decomposed) time.Duration { return d.alloc }},
		{"core.vc_place_ms", func(d *decomposed) time.Duration { return d.vcPlace }},
		{"core.thread_place_ms", func(d *decomposed) time.Duration { return d.threadPlace }},
		{"core.data_place_ms", func(d *decomposed) time.Duration { return d.dataPlace }},
	}
	v := lr.values
	v["cell_ms.p50"] = percentile(series(layers[0].sel, ""), 50)
	v["mesh.new_ms.p50"] = percentile(series(layers[1].sel, ""), 50)
	for _, l := range layers[2:] {
		v[l.name] = percentile(series(l.sel, ""), 50)
	}
	v["workload.build_ms.p50"] = percentile(series(func(d *decomposed) time.Duration { return d.workload }, ""), 50)
	v["perfmodel.evaluate_ms.p50"] = percentile(series(func(d *decomposed) time.Duration { return d.perfmodel }, ""), 50)
	v["encode.marshal_ms.p50"] = percentile(series(func(d *decomposed) time.Duration { return d.encode }, ""), 50)
	for name, key := range map[string]string{"S-NUCA": "snuca", "R-NUCA": "rnuca", "Jigsaw+C": "jigsaw_c", "Jigsaw+R": "jigsaw_r", "CDCS": "cdcs"} {
		var b []float64
		for _, d := range cells {
			if t, ok := d.policy[name]; ok {
				b = append(b, ms(t))
			}
		}
		v["policy.build_ms."+key] = percentile(b, 50)
	}
	var trades, ws []float64
	for _, d := range cells {
		trades = append(trades, float64(d.trades))
		if d.ws > 0 {
			ws = append(ws, d.ws)
		}
	}
	v["core.trades"] = percentile(trades, 50)
	v["perfmodel.ws_gmean_cdcs"] = gmean(ws)

	sides := map[string]bool{}
	for _, d := range cells {
		sides[d.side] = true
	}
	var list []string
	for s := range sides {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool { return sideLess(list[i], list[j]) })
	for _, s := range list {
		var parts []string
		for _, l := range layers {
			parts = append(parts, fmt.Sprintf("%s.%s %.3f", l.name, s, percentile(series(l.sel, s), 50)))
		}
		lr.notes = append(lr.notes, fmt.Sprintf("%s (%d cells): %s", s, len(series(layers[0].sel, s)), strings.Join(parts, ", ")))
	}
}
