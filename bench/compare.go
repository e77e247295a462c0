package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdcs"
	"cdcs/internal/resultstore"
	"cdcs/internal/server"
)

// compareWorkload is a closed loop of /v1/compare requests against one
// in-process server on a loopback listener.
type compareWorkload struct {
	// options builds the server options; dir is a fresh directory the
	// workload may use for its disk tier.
	options func(dir string) server.Options
	// request is request i of the timed stream and whether it is a cell the
	// server has not seen (a simulation, not a store read).
	request func(seed int64, i int) (req cdcs.CompareRequest, cold bool)
	// setup lists the requests a fresh server is sent before it counts as
	// ready; their time is part of setup_s.
	setup func(seed int64) []cdcs.CompareRequest
	// verifyMod picks the cells re-run in-process after the window: those
	// whose verify draw is 0 mod verifyMod.
	verifyMod uint64
}

// clients is the closed-loop client count: every real caller waits for
// each reply, and the load comes from at most as many clients as the box
// has cores (2 on the reference machine).
const clients = 2

// maxVerify caps the cells re-run in-process per window.
const maxVerify = 24

// compareStack is one running server with its listener and client.
type compareStack struct {
	srv    *server.Server
	ts     *httptest.Server
	dir    string
	client *http.Client
}

func (s *compareStack) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func newClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	}
	return &http.Client{Transport: rt, Timeout: 2 * time.Minute}
}

// tracedStore builds the tier chain server.New would build from o's Cache*
// fields, with every tier wrapped in a timing decorator. server.New's
// defaults are restated here; TestTracedChainMatchesServerChain fails if
// they drift.
func tracedStore(o server.Options, rec *recorder, replica string) (*resultstore.TierChain, error) {
	entries := o.CacheEntries
	if entries <= 0 {
		entries = 4096
	}
	tiers := []resultstore.Tier{newTimedTier(resultstore.MemoryTier(entries), rec, replica)}
	if o.CacheDir != "" {
		capBytes := o.CacheDiskBytes
		if capBytes == 0 {
			capBytes = server.DefaultCacheDiskBytes
		}
		var (
			disk resultstore.Tier
			err  error
		)
		if o.CacheCompress {
			disk, err = resultstore.OpenChunkedDisk(o.CacheDir, capBytes)
		} else {
			disk, err = resultstore.OpenDisk(o.CacheDir, capBytes)
		}
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, newTimedTier(disk, rec, replica))
	}
	return resultstore.Chain(tiers...), nil
}

// start builds the serving stack and runs the set-up requests; the
// returned duration is the set-up time the user of a fresh server waits.
func (w compareWorkload) start(seed int64, rec *recorder) (*compareStack, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp("", "cdcs-bench-")
	if err != nil {
		return nil, 0, err
	}
	o := w.options(dir)
	if rec != nil {
		store, err := tracedStore(o, rec, "r0")
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		o = server.Options{Store: store}
	}
	srv, err := server.New(o)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.wrapHandler("r0", h)
	}
	st := &compareStack{srv: srv, ts: httptest.NewServer(h), dir: dir, client: newClient(nil)}
	if err := st.sendAll(w.setup(seed), "set-up"); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// warmUp sends requests 0..n-1 of the timed stream, untimed, so that the
// window opens on a server in its steady state: heap and store filled, code
// paths warm. The window then starts at request n. On error it closes st.
func (w compareWorkload) warmUp(st *compareStack, seed int64, n int) error {
	reqs := make([]cdcs.CompareRequest, n)
	for i := range reqs {
		reqs[i], _ = w.request(seed, i)
	}
	err := st.sendAll(reqs, "warm-up")
	if err != nil {
		st.close()
	}
	return err
}

// sendAll sends reqs from the closed-loop clients and checks each reply's
// status and address.
func (s *compareStack) sendAll(reqs []cdcs.CompareRequest, phase string) error {
	var (
		next atomic.Int64
		err  error
	)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					errs <- nil
					return
				}
				cr, err := newCellReq(reqs[i])
				if err == nil {
					err = s.check(cr)
				}
				if err != nil {
					errs <- fmt.Errorf("%s request %d: %w", phase, i, err)
					return
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return err
}

// check sends one request and verifies the status and echoed address.
func (s *compareStack) check(cr cellReq) error {
	code, _, hdr, err := post(s.client, s.ts.URL+"/v1/compare", cr.body, 0)
	if err != nil {
		return err
	}
	if code != http.StatusOK || hdr.Get("X-Request-Hash") != cr.hash {
		return fmt.Errorf("status %d, X-Request-Hash %.12s, want 200 and %.12s", code, hdr.Get("X-Request-Hash"), cr.hash)
	}
	return nil
}

// post sends one JSON request and reads the whole reply.
func post(c *http.Client, url string, body []byte, spanID int64) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// identity checks that every reply for one content address has the same
// bytes.
type identity struct {
	mu   sync.Mutex
	seen map[string][32]byte
}

func newIdentity() *identity { return &identity{seen: map[string][32]byte{}} }

// check records body for addr and reports whether it matches the first
// reply for addr.
func (id *identity) check(addr string, body []byte) bool {
	sum := sha256.Sum256(body)
	id.mu.Lock()
	defer id.mu.Unlock()
	prev, ok := id.seen[addr]
	if !ok {
		id.seen[addr] = sum
		return true
	}
	return prev == sum
}

// window runs the closed loop for dur, from request first of the stream on,
// and verifies what it got back. keep names request indices whose bodies the
// caller needs afterwards.
func (w compareWorkload) window(st *compareStack, seed int64, first int, dur time.Duration, rec *recorder, keep map[int]bool) *windowResult {
	res := &windowResult{bodies: map[int][]byte{}}
	ident := newIdentity()
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	url := st.ts.URL + "/v1/compare"
	res.begin()
	deadline := res.start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				req, _ := w.request(seed, i)
				var root, hs int64
				if rec != nil {
					root, hs = rec.id(), rec.now()
				}
				cr, err := newCellReq(req)
				if err != nil {
					mu.Lock()
					res.attempted++
					res.fail("request %d: %v", i, err)
					mu.Unlock()
					continue
				}
				if rec != nil {
					rec.add(span{Parent: root, Name: "request.hash", Start: hs, End: rec.now(), Addr: cr.hash})
				}
				t0 := time.Now()
				code, body, hdr, err := post(st.client, url, cr.body, root)
				t1 := time.Now()
				if rec != nil {
					rec.add(span{ID: root, Name: "client.request", Start: hs, End: rec.now(), Addr: cr.hash})
				}
				same := ident.check(cr.hash, body)
				mu.Lock()
				res.attempted++
				switch {
				case err != nil:
					res.fail("request %d: %v", i, err)
				case code != http.StatusOK:
					res.fail("request %d: status %d: %.200s", i, code, body)
				case hdr.Get("X-Request-Hash") != cr.hash:
					res.fail("request %d: X-Request-Hash %.12s, want %.12s", i, hdr.Get("X-Request-Hash"), cr.hash)
				case !same:
					res.fail("request %d: body for %.12s differs from an earlier reply", i, cr.hash)
				default:
					res.done(t0, t1, 1)
					if keep[i] || draw(seed, tagVerify, i)%w.verifyMod == 0 {
						res.bodies[i] = body
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.end()
	w.verify(seed, res)
	return res
}

// verify re-runs a seed-fixed sample of the window's cells in-process and
// compares each served comparison with CompareRequest.Run's, byte for byte.
func (w compareWorkload) verify(seed int64, res *windowResult) {
	var idx []int
	for i := range res.bodies {
		if draw(seed, tagVerify, i)%w.verifyMod == 0 {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	if len(idx) > maxVerify {
		idx = idx[:maxVerify]
	}
	for _, i := range idx {
		req, _ := w.request(seed, i)
		if err := sameAsInProcess(req, res.bodies[i]); err != nil {
			res.fail("verify request %d: %v", i, err)
		}
		res.verified++
	}
}

// sameAsInProcess checks a served /v1/compare body against the in-process
// CompareRequest.Run.
func sameAsInProcess(req cdcs.CompareRequest, body []byte) error {
	cmp, err := req.Run(cdcs.RunOptions{})
	if err != nil {
		return err
	}
	want, err := json.Marshal(cmp)
	if err != nil {
		return err
	}
	var env struct {
		Comparison json.RawMessage `json:"comparison"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	if !bytes.Equal(env.Comparison, want) {
		return fmt.Errorf("served comparison differs from CompareRequest.Run")
	}
	return nil
}

// coldIndices returns the first n indices of the timed stream, from first
// on, that are new cells: the traced run decomposes these.
func (w compareWorkload) coldIndices(seed int64, first, n int) map[int]bool {
	out := map[int]bool{}
	for i := first; len(out) < n && i < first+1000*n; i++ {
		if _, cold := w.request(seed, i); cold {
			out[i] = true
		}
	}
	return out
}
