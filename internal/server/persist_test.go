package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWarmRestartServesFromDisk is the tentpole's acceptance check at the
// server layer: a replica restarted onto the same -cache-dir replays a
// completed sweep with zero simulations and byte-identical responses.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	s1, h1 := testServer(t, Options{CacheDir: dir})
	cold := do(h1, "POST", "/v1/sweep", smallSweep)
	if cold.Code != 200 {
		t.Fatalf("cold sweep: %d %s", cold.Code, cold.Body)
	}
	coldSims := s1.Stats().Simulations
	if coldSims == 0 {
		t.Fatal("cold sweep ran no simulations")
	}
	s1.Close()

	// A fresh process: new Server, same directory, empty memory tier.
	s2, h2 := testServer(t, Options{CacheDir: dir})
	warm := do(h2, "POST", "/v1/sweep", smallSweep)
	if warm.Code != 200 {
		t.Fatalf("warm sweep: %d %s", warm.Code, warm.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("restarted replica's sweep is not byte-identical")
	}
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("warm sweep X-Cache = %q, want hit (every cell from disk)", got)
	}
	if n := s2.Stats().Simulations; n != 0 {
		t.Errorf("restarted replica ran %d simulations, want 0", n)
	}
	st := s2.Stats().Cache
	if st.Tier("disk").Hits == 0 {
		t.Error("no disk-tier hits recorded on the warm replica")
	}

	// The same cells as individual compares also come from disk, and the
	// second lookup is served by the promoted memory entry.
	cmp1 := do(h2, "POST", "/v1/compare", smallCompareHop(2))
	cmp2 := do(h2, "POST", "/v1/compare", smallCompareHop(2))
	if cmp1.Header().Get("X-Cache") != "hit" || cmp2.Header().Get("X-Cache") != "hit" {
		t.Errorf("compares on warm replica: X-Cache %q then %q, want hit/hit",
			cmp1.Header().Get("X-Cache"), cmp2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(cmp1.Body.Bytes(), cmp2.Body.Bytes()) {
		t.Error("repeated compare bytes differ")
	}
	if n := s2.Stats().Simulations; n != 0 {
		t.Errorf("warm compares ran %d simulations, want 0", n)
	}
}

// smallCompareHop is smallSweep's cell (see sweep_test.go) at the given hop
// latency, spelled as a standalone compare body.
func smallCompareHop(hop int) string {
	return fmt.Sprintf(`{
		"config": {"mesh_width": 4, "mesh_height": 4, "bank_kb": 256,
		           "bank_latency": 9, "hop_latency": %d, "mem_latency": 120, "mem_channels": 8},
		"mix": {"kind": "random", "seed": 11, "n": 6},
		"schemes": ["S-NUCA", "CDCS"],
		"seed": 1
	}`, hop)
}

// TestMetricsCarryTierLabels pins the tier-labelled exposition format that
// dashboards and TestServeEndToEnd (cmd/cdcs-serve) read.
func TestMetricsCarryTierLabels(t *testing.T) {
	dir := t.TempDir()
	_, h := testServer(t, Options{CacheDir: dir})
	if w := do(h, "POST", "/v1/compare", smallCompare); w.Code != 200 {
		t.Fatalf("compare: %d %s", w.Code, w.Body)
	}
	m := do(h, "GET", "/metrics", "")
	for _, want := range []string{
		`cdcs_cache_hits_total{tier="memory"} `,
		`cdcs_cache_hits_total{tier="disk"} `,
		`cdcs_cache_misses_total{tier="disk"} `,
		`cdcs_cache_evictions_total{tier="memory"} `,
		`cdcs_cache_bytes{tier="disk"} `,
		`cdcs_cache_errors_total{tier="disk"} 0`,
		"cdcs_simulations_total 1",
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, m.Body)
		}
	}
}

// TestCorruptDiskEntryResimulatedByServer ties the corruption-tolerance
// path end to end: damage the one disk entry under a restarted replica and
// the request re-simulates (exactly once) instead of failing or panicking.
func TestCorruptDiskEntryResimulatedByServer(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := testServer(t, Options{CacheDir: dir})
	cold := do(h1, "POST", "/v1/compare", smallCompare)
	if cold.Code != 200 {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body)
	}
	s1.Close()

	// Bit-flip every entry file's payload region.
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".e") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)-1] ^= 0x01
		n++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("damaged %d entries, err=%v", n, err)
	}

	s2, h2 := testServer(t, Options{CacheDir: dir})
	warm := do(h2, "POST", "/v1/compare", smallCompare)
	if warm.Code != 200 {
		t.Fatalf("after corruption: %d %s", warm.Code, warm.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("re-simulated response differs from the original")
	}
	if got := warm.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (corrupt entry must not serve)", got)
	}
	if sims := s2.Stats().Simulations; sims != 1 {
		t.Errorf("simulations = %d, want 1", sims)
	}
	if errs := s2.Stats().Cache.Tier("disk").Errors; errs == 0 {
		t.Error("corruption not counted in disk-tier errors")
	}
	// The write-through repaired the entry: one more restart serves it.
	s2.Close()
	s3, h3 := testServer(t, Options{CacheDir: dir})
	again := do(h3, "POST", "/v1/compare", smallCompare)
	if again.Header().Get("X-Cache") != "hit" || s3.Stats().Simulations != 0 {
		t.Errorf("entry not repaired: X-Cache=%q, sims=%d",
			again.Header().Get("X-Cache"), s3.Stats().Simulations)
	}
}
