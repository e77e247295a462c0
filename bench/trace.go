package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdcs/internal/resultstore"
)

// A span is one timed interval at a layer boundary. Spans of one cell share
// its content address (Addr); Parent links a span to the span that caused
// it when the cause is known where the span is recorded (0 otherwise; such
// spans are joined to their cell by address afterwards, see analyze).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the recorder's epoch
	End     int64  `json:"end_ns"`
	Addr    string `json:"addr,omitempty"`
	Replica string `json:"replica,omitempty"`
	// Status and Cache describe server spans: the response code and the
	// X-Cache header ("miss" marks the handler that ran the simulation).
	Status int    `json:"status,omitempty"`
	Cache  string `json:"cache,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanHeader carries a client-side span id to the server so the handler
// span can name its parent.
const spanHeader = "X-Bench-Span"

// recorder keeps spans in memory; they are written out once, at the end.
// Untraced runs pass a nil recorder and record nothing.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) id() int64 { return r.nextID.Add(1) }

// add records s, assigning an id if it has none.
func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far: those of set-up and warm-up, which
// the analysis of the timed window must not see.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// wrapHandler times a replica's /v1/compare and /v1/blob handlers from
// outside the server: "server.handler" for compares (address from the
// X-Request-Hash response header), "peer.blob" for blob reads served to a
// sibling.
func (r *recorder) wrapHandler(replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, addr := "", ""
		switch {
		case req.URL.Path == "/v1/compare":
			name = "server.handler"
		case strings.HasPrefix(req.URL.Path, "/v1/blob/"):
			name, addr = "peer.blob", strings.TrimPrefix(req.URL.Path, "/v1/blob/")
		default:
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := r.now()
		h.ServeHTTP(rec, req)
		end := r.now()
		if addr == "" {
			addr = rec.Header().Get("X-Request-Hash")
		}
		r.add(span{Parent: parent, Name: name, Start: start, End: end, Addr: addr,
			Replica: replica, Status: rec.code, Cache: rec.Header().Get("X-Cache")})
	})
}

// rpcTransport times the sweep coordinator's cell requests ("fanout.rpc")
// from send until the response body is closed, and stamps each request with
// its span id. parent is the current sweep's root span.
type rpcTransport struct {
	rec    *recorder
	base   http.RoundTripper
	parent atomic.Int64
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/compare" {
		return t.base.RoundTrip(req)
	}
	id := t.rec.id()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	s := span{ID: id, Parent: t.parent.Load(), Name: "fanout.rpc", Start: t.rec.now(), Replica: req.URL.Host}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	s.Addr = resp.Header.Get("X-Request-Hash")
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// peerTransport times a replica's blob fetches from its siblings
// ("peer.fetch", address from the request path); other requests pass
// through untimed.
type peerTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	addr, ok := strings.CutPrefix(req.URL.Path, "/v1/blob/")
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{Name: "peer.fetch", Start: t.rec.now(), Addr: addr}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedTier decorates a store tier with "store.<tier>.<op>" spans. It
// forwards Peek and Keys so the chain counts lookups and builds manifests
// exactly as it does over the bare tier (see TestTracedChainMatchesServerChain).
type timedTier struct {
	resultstore.Tier
	rec     *recorder
	replica string
	get     string
	put     string
	peek    string
}

func newTimedTier(t resultstore.Tier, rec *recorder, replica string) *timedTier {
	p := "store." + t.Name() + "."
	return &timedTier{Tier: t, rec: rec, replica: replica, get: p + "get", put: p + "put", peek: p + "peek"}
}

func (t *timedTier) span(name, key string, start int64) {
	t.rec.add(span{Name: name, Start: start, End: t.rec.now(), Addr: key, Replica: t.replica})
}

func (t *timedTier) Get(key string) ([]byte, bool) {
	start := t.rec.now()
	v, ok := t.Tier.Get(key)
	t.span(t.get, key, start)
	return v, ok
}

func (t *timedTier) Put(key string, val []byte) {
	start := t.rec.now()
	t.Tier.Put(key, val)
	t.span(t.put, key, start)
}

// Peek forwards the uncounted lookup. Every tier the benchmark decorates
// implements it; a tier that did not would be probed with a counted Get,
// exactly as the chain treats an undecorated tier without Peek.
func (t *timedTier) Peek(key string) ([]byte, bool) {
	start := t.rec.now()
	var (
		v  []byte
		ok bool
	)
	if p, isPeeker := t.Tier.(interface{ Peek(string) ([]byte, bool) }); isPeeker {
		v, ok = p.Peek(key)
	} else {
		v, ok = t.Tier.Get(key)
	}
	t.span(t.peek, key, start)
	return v, ok
}

// Keys forwards manifest enumeration.
func (t *timedTier) Keys() []string {
	if kl, ok := t.Tier.(interface{ Keys() []string }); ok {
		return kl.Keys()
	}
	return nil
}

// layerOf maps a span name to the layer its self time is charged to in the
// share.* metrics.
func layerOf(name string) string {
	switch {
	case name == "client.request", name == "fanout.rpc":
		return "http"
	case name == "client.sweep":
		return "fanout"
	case name == "request.hash", name == "request.cells":
		return "request"
	case name == "server.handler":
		return "queue_wait"
	case strings.HasPrefix(name, "store."):
		return "store"
	case strings.HasPrefix(name, "peer."):
		return "peer"
	case name == "mesh.new":
		return "mesh"
	case name == "workload.build":
		return "workload"
	case name == "core.alloc":
		return "core_alloc"
	case strings.HasPrefix(name, "core."):
		return "core_place"
	case name == "perfmodel.evaluate":
		return "perfmodel"
	case name == "encode.marshal":
		return "encode"
	default: // cell.compute, scheme, policy.build: the policy layer's own work
		return "policy_other"
	}
}

// shareLayers lists the share.* metrics in print order.
var shareLayers = []string{"request", "http", "fanout", "queue_wait", "store", "peer",
	"mesh", "workload", "policy_other", "core_alloc", "core_place", "perfmodel", "encode"}

type interval struct{ a, b int64 }

// selfIntervals is s's interval minus the union of its children's.
func selfIntervals(s span, children []span) []interval {
	iv := make([]interval, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			iv = append(iv, interval{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var out []interval
	cur := s.Start
	for _, c := range iv {
		if c.a > cur {
			out = append(out, interval{cur, c.a})
		}
		cur = max(cur, c.b)
	}
	if cur < s.End {
		out = append(out, interval{cur, s.End})
	}
	return out
}

// tree is a span forest indexed by parent.
type tree struct {
	byID     map[int64]span
	children map[int64][]span
}

func newTree(spans []span) *tree {
	t := &tree{byID: map[int64]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		t.byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// attribute splits the wall time of the tree under root among layers: each
// span contributes its self intervals, and where k self intervals overlap
// (parallel children — schemes evaluated side by side, cells in flight
// together) each gets 1/k of that time. The result sums to the root's
// duration, so layer times divided by it are shares of what the caller
// waited for.
func (t *tree) attribute(root span) map[string]float64 {
	type tagged struct {
		interval
		layer string
	}
	var self []tagged
	var walk func(s span)
	walk = func(s span) {
		kids := t.children[s.ID]
		for _, iv := range selfIntervals(s, kids) {
			a, b := max(iv.a, root.Start), min(iv.b, root.End)
			if a < b {
				self = append(self, tagged{interval{a, b}, layerOf(s.Name)})
			}
		}
		for _, k := range kids {
			walk(k)
		}
	}
	walk(root)
	cuts := make([]int64, 0, 2*len(self))
	for _, iv := range self {
		cuts = append(cuts, iv.a, iv.b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]float64{}
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if a == b {
			continue
		}
		k := 0
		for _, iv := range self {
			if iv.a <= a && iv.b >= b {
				k++
			}
		}
		for _, iv := range self {
			if iv.a <= a && iv.b >= b {
				out[iv.layer] += float64(b-a) / float64(k)
			}
		}
	}
	return out
}
