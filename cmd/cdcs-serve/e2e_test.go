package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// e2eGrid is 8 cells: small enough that every sweep below takes
// milliseconds, wide enough to spread over three replicas.
const e2eGrid = `{"mesh": [{"width": 8, "height": 8}], "bank_kb": [256, 512], "hop_latency": [2, 4],
 "mixes": [{"kind": "random", "seed": 1, "n": 16}, {"kind": "random", "seed": 2, "n": 16}],
 "schemes": ["S-NUCA", "CDCS"], "seed": 1}`

// e2eWideGrid is 32 cells, twice the memory tier's 16 shards, so a tier
// that keeps one entry per shard must evict.
const e2eWideGrid = `{"mesh": [{"width": 8, "height": 8}], "bank_kb": [256, 512], "hop_latency": [2, 3, 4, 5],
 "mixes": [{"kind": "random", "seed": 1, "n": 16}, {"kind": "random", "seed": 2, "n": 16},
           {"kind": "random", "seed": 3, "n": 16}, {"kind": "random", "seed": 4, "n": 16}],
 "schemes": ["S-NUCA", "CDCS"], "seed": 1}`

// TestServeEndToEnd builds cdcs-serve and cdcs and drives the real binaries
// through what only separate processes show: flag-to-Options wiring, the
// listening line, exit codes, restarts onto a cache directory, and a fleet
// assembled with -advertise auto -join that loses one member to a kill and
// one to a drain. Every sweep must be byte-identical to a local one. The
// finer assertions (cache headers, tier, breaker and membership counters,
// mid-sweep faults) live in internal/server and the root sweep*_test.go
// chaos tests.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir, "cdcs/cmd/cdcs-serve", "cdcs/cmd/cdcs").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	serveBin, cliBin := filepath.Join(dir, "cdcs-serve"), filepath.Join(dir, "cdcs")
	gridPath, wideGridPath := filepath.Join(dir, "grid.json"), filepath.Join(dir, "wide.json")
	if err := errors.Join(os.WriteFile(gridPath, []byte(e2eGrid), 0o644), os.WriteFile(wideGridPath, []byte(e2eWideGrid), 0o644)); err != nil {
		t.Fatal(err)
	}
	cli := func(t *testing.T, args ...string) []byte {
		t.Helper()
		ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
		defer cancel()
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, cliBin, args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("cdcs %v: %v\n%s", args, err, stderr.Bytes())
		}
		return out
	}
	sweepGrid := func(t *testing.T, grid string, replicas ...*replica) []byte {
		t.Helper()
		urls := make([]string, len(replicas))
		for i, r := range replicas {
			urls[i] = r.url
		}
		return cli(t, "-sweep", grid, "-sweep-json", "-replicas", strings.Join(urls, ","))
	}
	sweep := func(t *testing.T, replicas ...*replica) []byte {
		t.Helper()
		return sweepGrid(t, gridPath, replicas...)
	}
	want := cli(t, "-sweep", gridPath, "-sweep-json")

	t.Run("usage errors exit 2", func(t *testing.T) {
		for name, args := range map[string][]string{
			"-cache-compress without -cache-dir":    {"-cache-compress"},
			"-cache-disk-bytes without -cache-dir":  {"-cache-disk-bytes", "1024"},
			"-join without -advertise":              {"-join", "http://127.0.0.1:1"},
			"-fleet-probe-interval without a fleet": {"-fleet-probe-interval", "1s"},
			"-peers lists no URL":                   {"-peers", ","},
			"-peers entry without a scheme":         {"-peers", "http://127.0.0.1:1,127.0.0.1:2"},
			"-advertise without a scheme":           {"-advertise", "127.0.0.1:1"},
			"positional argument":                   {"stray"},
			"-advertise auto on [::]":               {"-addr", ":0", "-advertise", "auto"},
			"-advertise auto on 0.0.0.0":            {"-addr", "0.0.0.0:0", "-advertise", "auto"},
		} {
			ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, serveBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			cancel()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(stdout.String(), "listening on") {
				t.Errorf("%s: err %v, stdout %q, stderr %q; want exit 2 before listening", name, err, stdout.String(), stderr.String())
			}
		}
	})

	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart and peer fill, compress=%v", compress), func(t *testing.T) {
			flags := []string{"-cache-dir", t.TempDir()}
			if compress {
				flags = append(flags, "-cache-compress")
			}
			a := startServe(t, serveBin, flags...)
			if !bytes.Equal(sweep(t, a), want) {
				t.Fatal("sweep through one replica differs from the local sweep")
			}
			if compress && a.metric(t, `cdcs_cache_bytes{tier="disk"}`) >= a.metric(t, `cdcs_cache_logical_bytes{tier="disk"}`) {
				t.Error("-cache-compress did not reach the disk tier: stored bytes not below logical bytes")
			}
			a.stop(t)

			b := startServe(t, serveBin, flags...)
			if !bytes.Equal(sweep(t, b), want) {
				t.Error("replay after a restart onto the same -cache-dir differs")
			}
			if n := b.metric(t, "cdcs_simulations_total"); n != 0 {
				t.Errorf("restarted replica ran %v simulations, want 0", n)
			}

			empty := startServe(t, serveBin, "-peers", b.url)
			if !bytes.Equal(sweep(t, empty), want) {
				t.Error("peer-filled sweep differs")
			}
			if n := empty.metric(t, "cdcs_simulations_total"); n != 0 {
				t.Errorf("empty replica with a warm peer ran %v simulations, want 0", n)
			}
		})
	}

	t.Run("memory tier bounded in bytes", func(t *testing.T) {
		// A 1-byte budget leaves each shard only its newest entry.
		a := startServe(t, serveBin, "-cache-bytes", "1")
		if !bytes.Equal(sweepGrid(t, wideGridPath, a), cli(t, "-sweep", wideGridPath, "-sweep-json")) {
			t.Error("sweep through a replica with -cache-bytes 1 differs from the local sweep")
		}
		if n := a.metric(t, "cdcs_simulations_total"); n != 32 {
			t.Errorf("%v simulations, want one per cell (32)", n)
		}
		if n := a.metric(t, `cdcs_cache_entries{tier="memory"}`); n < 1 || n > 16 {
			t.Errorf("memory tier holds %v entries, want 1 to 16 (one per shard at most)", n)
		}
		if n := a.metric(t, "cdcs_jobs_workers"); n < 1 {
			t.Errorf("cdcs_jobs_workers = %v, want the default job concurrency", n)
		}
	})

	t.Run("fleet kill and drain", func(t *testing.T) {
		fleet := []string{"-advertise", "auto", "-fleet-probe-interval", "50ms", "-fleet-breaker-threshold", "2"}
		a := startServe(t, serveBin, fleet...)
		b := startServe(t, serveBin, slices.Concat(fleet, []string{"-join", a.url})...)
		c := startServe(t, serveBin, slices.Concat(fleet, []string{"-join", a.url})...)
		waitFor(t, "three members in a's view", func() bool { return a.metric(t, "cdcs_fleet_members") == 3 })
		if !bytes.Equal(sweep(t, a, b, c), want) {
			t.Fatal("sweep over the three-member fleet differs from the local sweep")
		}

		c.kill(t)
		trips := fmt.Sprintf("cdcs_fleet_breaker_trips_total{replica=%q}", c.url)
		waitFor(t, "a's breaker on the killed member to trip", func() bool { return a.metric(t, trips) >= 1 })
		degraded := sweep(t, a, b, c)
		if !bytes.Equal(degraded, want) {
			t.Error("sweep with a killed member differs from the local sweep")
		}

		cli(t, "-drain", b.url)
		waitFor(t, "the drain to shrink a's view", func() bool { return a.metric(t, "cdcs_fleet_members") == 2 })

		wantPath, degradedPath := filepath.Join(dir, "want.json"), filepath.Join(dir, "degraded.json")
		if err := errors.Join(os.WriteFile(wantPath, want, 0o644), os.WriteFile(degradedPath, degraded, 0o644)); err != nil {
			t.Fatal(err)
		}
		if out := cli(t, "-sweep-diff", wantPath, degradedPath); !bytes.Contains(out, []byte("results are identical")) {
			t.Errorf("cdcs -sweep-diff on identical results printed:\n%s", out)
		}
	})
}

// replica is one running cdcs-serve process.
type replica struct {
	cmd            *exec.Cmd
	url            string
	stdout, stderr syncBuffer
	exited         chan struct{}
	err            error // cmd.Wait's result, set before exited closes
}

// startServe starts cdcs-serve on an ephemeral loopback port (args may
// override -addr) and waits for its listening line. Cleanup kills it and
// waits for it to exit.
func startServe(t *testing.T, bin string, args ...string) *replica {
	t.Helper()
	r := &replica{exited: make(chan struct{})}
	r.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	r.cmd.Stdout, r.cmd.Stderr = &r.stdout, &r.stderr
	if err := r.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { r.err = r.cmd.Wait(); close(r.exited) }()
	t.Cleanup(func() {
		_ = r.cmd.Process.Kill() // fails only once the process has exited
		<-r.exited
		if t.Failed() {
			t.Logf("cdcs-serve %v stderr:\n%s", args, r.stderr.String())
		}
	})
	waitFor(t, "cdcs-serve to listen", func() bool {
		select {
		case <-r.exited:
			t.Fatalf("cdcs-serve %v exited before listening: %v\n%s", args, r.err, r.stderr.String())
		default:
		}
		_, rest, _ := strings.Cut(r.stdout.String(), "cdcs-serve: listening on ")
		addr, _, ok := strings.Cut(rest, "\n")
		if ok {
			r.url = "http://" + addr
		}
		return ok
	})
	return r
}

// stop sends SIGTERM and requires a graceful exit with status 0.
func (r *replica) stop(t *testing.T) {
	t.Helper()
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-r.exited
	if r.err != nil {
		t.Fatalf("cdcs-serve exited with %v after SIGTERM, want 0:\n%s", r.err, r.stderr.String())
	}
}

// kill ends the process abruptly, as a crash would.
func (r *replica) kill(t *testing.T) {
	t.Helper()
	if err := r.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-r.exited
}

// metric returns the value of one /metrics series, or -1 when the replica
// does not export it.
func (r *replica) metric(t *testing.T, series string) float64 {
	t.Helper()
	resp, err := http.Get(r.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return -1
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// syncBuffer is a bytes.Buffer the child's output copier writes while the
// test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
