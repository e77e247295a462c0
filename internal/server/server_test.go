package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testServer builds a server with a small footprint and its handler.
func testServer(t *testing.T, opts Options) (*Server, http.Handler) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, s.Handler()
}

// do runs one request through the handler and returns the recorder.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// smallCompare is a fast request: a 4x4 chip, 6 apps, two schemes.
const smallCompare = `{
	"config": {"mesh_width": 4, "mesh_height": 4, "bank_kb": 256,
	           "bank_latency": 9, "hop_latency": 4, "mem_latency": 120, "mem_channels": 4},
	"mix": {"kind": "random", "seed": 11, "n": 6},
	"schemes": ["S-NUCA", "CDCS"],
	"seed": 1
}`

func TestHandlerTable(t *testing.T) {
	_, h := testServer(t, Options{})
	cases := []struct {
		name         string
		method, path string
		body         string
		wantCode     int
		wantInBody   string
	}{
		{"compare bad JSON", "POST", "/v1/compare", `{not json`, 400, "bad request body"},
		{"compare unknown field", "POST", "/v1/compare", `{"mxi": {}}`, 400, "unknown field"},
		{"compare trailing garbage", "POST", "/v1/compare", `{"mix":{"kind":"casestudy"}} trailing`, 400, ""},
		{"compare trailing garbage brace", "POST", "/v1/compare", `{"mix":{"kind":"casestudy"}}}`, 400, "unexpected data"},
		{"compare trailing garbage bracket", "POST", "/v1/compare", `{"mix":{"kind":"casestudy"}}]`, 400, "unexpected data"},
		{"compare no mix kind", "POST", "/v1/compare", `{"seed": 1}`, 400, "kind"},
		{"compare bad mix kind", "POST", "/v1/compare", `{"mix": {"kind": "wat"}}`, 400, "unknown mix kind"},
		{"compare unknown scheme", "POST", "/v1/compare", `{"mix": {"kind": "casestudy"}, "schemes": ["NUCA-9000"]}`, 400, "unknown scheme"},
		{"compare unknown bench", "POST", "/v1/compare", `{"mix": {"kind": "apps", "apps": [{"bench": "no-such"}]}}`, 400, "unknown benchmark"},
		{"compare bad config", "POST", "/v1/compare", `{"config": {"mesh_width": -3}, "mix": {"kind": "casestudy"}}`, 400, "invalid mesh"},
		{"compare GET rejected", "GET", "/v1/compare", "", 405, ""},
		{"experiment bad JSON", "POST", "/v1/experiment", `[]`, 400, "bad request body"},
		{"experiment unknown id", "POST", "/v1/experiment", `{"id": "fig99"}`, 404, "unknown experiment"},
		{"experiment empty id", "POST", "/v1/experiment", `{}`, 400, "needs an id"},
		{"job unknown", "GET", "/v1/jobs/j999", "", 404, "unknown job"},
		{"job cancel unknown", "DELETE", "/v1/jobs/j999", "", 404, "unknown job"},
		{"healthz", "GET", "/healthz", "", 200, `"ok"`},
		{"metrics", "GET", "/metrics", "", 200, "cdcs_cache_hits_total"},
		{"experiments list", "GET", "/v1/experiments", "", 200, "fig11"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(h, tc.method, tc.path, tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("%s %s -> %d, want %d (body: %s)", tc.method, tc.path, w.Code, tc.wantCode, w.Body)
			}
			if tc.wantInBody != "" && !strings.Contains(w.Body.String(), tc.wantInBody) {
				t.Errorf("body %q does not contain %q", w.Body, tc.wantInBody)
			}
		})
	}
}

func TestCompareColdThenCachedIdentical(t *testing.T) {
	s, h := testServer(t, Options{})
	cold := do(h, "POST", "/v1/compare", smallCompare)
	if cold.Code != 200 {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body)
	}
	if got := cold.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}
	warm := do(h, "POST", "/v1/compare", smallCompare)
	if warm.Code != 200 {
		t.Fatalf("warm: %d %s", warm.Code, warm.Body)
	}
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("cached response is not byte-identical to the cold response")
	}
	if n := s.Stats().Simulations; n != 1 {
		t.Errorf("simulations = %d, want 1 (the hit must not touch the engine)", n)
	}
	// Field order in the request body must not defeat the cache.
	reordered := do(h, "POST", "/v1/compare", `{
		"seed": 1,
		"schemes": ["S-NUCA", "CDCS"],
		"mix": {"n": 6, "kind": "random", "seed": 11},
		"config": {"mem_channels": 4, "mesh_height": 4, "mesh_width": 4,
		           "bank_kb": 256, "mem_latency": 120, "hop_latency": 4, "bank_latency": 9}
	}`)
	if reordered.Header().Get("X-Cache") != "hit" {
		t.Error("reordered request missed the cache")
	}
	if !bytes.Equal(cold.Body.Bytes(), reordered.Body.Bytes()) {
		t.Error("reordered request got different bytes")
	}
	var resp struct {
		Hash       string `json:"hash"`
		Comparison struct {
			Baseline        string             `json:"baseline"`
			WeightedSpeedup map[string]float64 `json:"weighted_speedup"`
		} `json:"comparison"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if resp.Comparison.Baseline != "S-NUCA" || len(resp.Comparison.WeightedSpeedup) != 2 {
		t.Errorf("unexpected comparison: %+v", resp.Comparison)
	}
	if resp.Hash != cold.Header().Get("X-Request-Hash") {
		t.Error("body hash differs from X-Request-Hash header")
	}
}

// waitJob polls a job until it reaches a terminal status.
func waitJob(t *testing.T, h http.Handler, id string, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		w := do(h, "GET", "/v1/jobs/"+id, "")
		if w.Code != 200 {
			t.Fatalf("GET job %s: %d %s", id, w.Code, w.Body)
		}
		var v View
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatalf("job view: %v", err)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExperimentAsyncThenCached(t *testing.T) {
	s, h := testServer(t, Options{})
	body := `{"id": "fig2", "quick": true}`
	w := do(h, "POST", "/v1/experiment", body)
	if w.Code != 202 {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var v View
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || w.Header().Get("Location") != "/v1/jobs/"+v.ID {
		t.Fatalf("bad job view/Location: %+v %q", v, w.Header().Get("Location"))
	}
	final := waitJob(t, h, v.ID, 30*time.Second)
	if final.Status != StatusDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	var res struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil || !strings.Contains(res.Report, "fig2") {
		t.Fatalf("result report missing: %v %q", err, res.Report)
	}
	sims := s.Stats().Simulations

	// Same request again: served from cache as an instantly-done job.
	w2 := do(h, "POST", "/v1/experiment", body)
	if w2.Code != 200 {
		t.Fatalf("cached submit: %d %s", w2.Code, w2.Body)
	}
	var v2 View
	if err := json.Unmarshal(w2.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("cached job view: %+v", v2)
	}
	if !bytes.Equal(v2.Result, final.Result) {
		t.Error("cached experiment result differs from the fresh one")
	}
	if s.Stats().Simulations != sims {
		t.Error("cached experiment touched the engine")
	}
}

func TestExperimentCancellationMidJob(t *testing.T) {
	_, h := testServer(t, Options{Workers: 1})
	// fig11 runs 40 mixes in tens of milliseconds, so a job that short can
	// finish between the running check and the cancel; 4000 mixes take
	// seconds, long enough to be mid-flight when the cancel lands.
	w := do(h, "POST", "/v1/experiment", `{"id": "fig11", "mixes": 4000}`)
	if w.Code != 202 {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var v View
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue so we cancel a *running* job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g := do(h, "GET", "/v1/jobs/"+v.ID, "")
		var cur View
		if err := json.Unmarshal(g.Body.Bytes(), &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Status == StatusRunning {
			break
		}
		if cur.Status != StatusQueued || time.Now().After(deadline) {
			t.Fatalf("job never ran: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	del := do(h, "DELETE", "/v1/jobs/"+v.ID, "")
	if del.Code != 202 {
		t.Fatalf("cancel: %d %s", del.Code, del.Body)
	}
	final := waitJob(t, h, v.ID, 30*time.Second)
	if final.Status != StatusCanceled {
		t.Fatalf("status after cancel = %s (err %q), want canceled", final.Status, final.Error)
	}
	// Canceling a finished job conflicts.
	again := do(h, "DELETE", "/v1/jobs/"+v.ID, "")
	if again.Code != 409 {
		t.Errorf("second cancel: %d, want 409", again.Code)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	s, h := testServer(t, Options{Workers: 1, QueueDepth: 2})
	// Occupy the single worker with a job that runs until the server
	// closes, then fill both queue slots, then overflow with a third
	// distinct request.
	started := make(chan struct{})
	if _, err := s.jobs.submit("block", "h", blockingJob(started)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking job never ran")
	}
	first := do(h, "POST", "/v1/experiment", `{"id": "fig11", "mixes": 30}`)
	if first.Code != 202 {
		t.Fatalf("first submit: %d %s", first.Code, first.Body)
	}
	second := do(h, "POST", "/v1/experiment", `{"id": "fig11", "mixes": 31}`)
	if second.Code != 202 {
		t.Fatalf("second submit: %d %s", second.Code, second.Body)
	}
	third := do(h, "POST", "/v1/experiment", `{"id": "fig11", "mixes": 32}`)
	if third.Code != 503 {
		t.Fatalf("overflow submit: %d, want 503 (%s)", third.Code, third.Body)
	}
	if !strings.Contains(third.Body.String(), "queue full") {
		t.Errorf("overflow body: %s", third.Body)
	}
}

func TestSubmitAfterCloseReturns503(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	s.Close()
	// A request racing shutdown must be rejected, not stranded on a queue
	// no worker drains.
	w := do(h, "POST", "/v1/compare", smallCompare)
	if w.Code != 503 {
		t.Fatalf("compare after close: %d %s", w.Code, w.Body)
	}
	w = do(h, "POST", "/v1/experiment", `{"id": "fig2", "quick": true}`)
	if w.Code != 503 {
		t.Fatalf("experiment after close: %d %s", w.Code, w.Body)
	}
}

func TestJobRegistryRetentionBounded(t *testing.T) {
	m := newManager(1, 1, 0)
	defer m.close()
	var last *Job
	for i := 0; i < 4*maxRetainedJobs; i++ {
		last = m.completed("compare", "h", []byte("r"))
	}
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n > maxRetainedJobs {
		t.Errorf("registry holds %d jobs, want <= %d", n, maxRetainedJobs)
	}
	if _, ok := m.get(last.ID); !ok {
		t.Error("most recent job was evicted")
	}
}

func TestJobSSEStream(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/experiment", "application/json",
		strings.NewReader(`{"id": "fig2", "quick": true, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID, nil)
	req.Header.Set("Accept", "text/event-stream")
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if len(events) > 0 && events[len(events)-1] == "done" {
			break
		}
	}
	if len(events) == 0 || events[0] != "job" || events[len(events)-1] != "done" {
		t.Fatalf("event sequence = %v, want job ... done", events)
	}
}

// TestPprofMountedOnlyWhenEnabled pins the -pprof contract: the profiling
// endpoints exist exactly when Options.Pprof is set. The default server must
// expose no introspection surface (404, with the API still up), and the
// opt-in server must serve the pprof index and sub-handlers.
func TestPprofMountedOnlyWhenEnabled(t *testing.T) {
	paths := []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
	}

	_, off := testServer(t, Options{})
	for _, p := range paths {
		if w := do(off, "GET", p, ""); w.Code != http.StatusNotFound {
			t.Errorf("Pprof off: GET %s -> %d, want 404", p, w.Code)
		}
	}

	_, on := testServer(t, Options{Pprof: true})
	for _, p := range paths {
		if w := do(on, "GET", p, ""); w.Code != http.StatusOK {
			t.Errorf("Pprof on: GET %s -> %d, want 200 (body: %s)", p, w.Code, w.Body)
		}
	}
	// The index actually is the pprof page, not some other 200.
	if w := do(on, "GET", "/debug/pprof/", ""); !strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("pprof index does not look like a profile listing: %q", w.Body)
	}
	// Mounting pprof must not displace the API routes.
	if w := do(on, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("Pprof on: /healthz -> %d, want 200", w.Code)
	}
}

func TestBadAppNamesExact400(t *testing.T) {
	// A compare or sweep naming an unknown benchmark is rejected with 400
	// and the exact error MixSpec.Build gives, before any simulation.
	s, h := testServer(t, Options{})
	for _, tc := range []struct{ mix, want string }{
		{`{"kind": "apps", "apps": [{"bench": "omnet"}, {"bench": "no-such"}]}`, `cdcs: unknown benchmark "no-such"`},
		{`{"kind": "apps", "apps": [{"bench": "omnet", "mt": true}]}`, `cdcs: unknown MT benchmark "omnet"`},
	} {
		for _, req := range []struct{ path, body, prefix string }{
			{"/v1/compare", `{"mix": ` + tc.mix + `}`, ""},
			{"/v1/sweep", `{"mixes": [{"kind": "casestudy"}, ` + tc.mix + `]}`, "mix 1: "},
		} {
			w := do(h, "POST", req.path, req.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s %s -> %d, want 400 (body: %s)", req.path, tc.mix, w.Code, w.Body)
			}
			var body struct{ Error string }
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if want := req.prefix + tc.want; body.Error != want {
				t.Errorf("%s %s: error %q, want %q", req.path, tc.mix, body.Error, want)
			}
		}
	}
	if n := s.simulations.Load(); n != 0 {
		t.Errorf("%d simulations ran for rejected requests", n)
	}
}
