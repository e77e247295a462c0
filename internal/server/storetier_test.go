package server

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdcs/internal/resultstore"
)

// TestBlobEndpointServesFramedEntries pins the peer-fill wire format: a
// stored entry comes back in the keyed blob frame (resultstore.EncodeBlob)
// bound to the requested address, and unknown hashes are clean 404s.
func TestBlobEndpointServesFramedEntries(t *testing.T) {
	_, h := testServer(t, Options{CacheDir: t.TempDir()})
	cmp := do(h, "POST", "/v1/compare", smallCompare)
	if cmp.Code != 200 {
		t.Fatalf("compare: %d %s", cmp.Code, cmp.Body)
	}
	hash := cmp.Header().Get("X-Request-Hash")
	if hash == "" {
		t.Fatal("compare response carries no X-Request-Hash")
	}

	blob := do(h, "GET", "/v1/blob/"+hash, "")
	if blob.Code != 200 {
		t.Fatalf("blob: %d %s", blob.Code, blob.Body)
	}
	if ct := blob.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("blob Content-Type = %q", ct)
	}
	val, err := resultstore.DecodeBlob(hash, blob.Body.Bytes())
	if err != nil {
		t.Fatalf("blob frame does not decode: %v", err)
	}
	if !bytes.Equal(val, cmp.Body.Bytes()) {
		t.Error("blob payload differs from the compare response")
	}
	// The frame is bound to the address it answers: verifying it against a
	// different key must fail, which is what protects a peer from a stale
	// response for the wrong hash.
	if _, err := resultstore.DecodeBlob(strings.Repeat("0", 64), blob.Body.Bytes()); err == nil {
		t.Error("blob frame verified against the wrong content address")
	}

	if w := do(h, "GET", "/v1/blob/"+strings.Repeat("0", 64), ""); w.Code != 404 {
		t.Errorf("unknown hash: %d, want 404", w.Code)
	}
	if w := do(h, "GET", "/v1/blob/"+strings.Repeat("a", 200), ""); w.Code != 400 {
		t.Errorf("oversized hash: %d, want 400", w.Code)
	}
}

// TestPeerFillServesColdReplica is the tentpole's fleet-level acceptance
// check: a replica with an empty cache directory and a warm peer replays
// the peer's sweep byte-identically with zero local simulations — every
// cell arrives through the peer tier and is promoted into local tiers.
func TestPeerFillServesColdReplica(t *testing.T) {
	// Replica B: warm — it computed the sweep.
	dirB := t.TempDir()
	sB, hB := testServer(t, Options{CacheDir: dirB})
	warm := do(hB, "POST", "/v1/sweep", smallSweep)
	if warm.Code != 200 {
		t.Fatalf("warm sweep on B: %d %s", warm.Code, warm.Body)
	}
	if sB.Stats().Simulations == 0 {
		t.Fatal("B computed nothing")
	}
	peerB := httptest.NewServer(hB)
	defer peerB.Close()

	// Replica A: cold — empty directory, B as its only peer.
	sA, hA := testServer(t, Options{CacheDir: t.TempDir(), Peers: []string{peerB.URL}})
	cold := do(hA, "POST", "/v1/sweep", smallSweep)
	if cold.Code != 200 {
		t.Fatalf("sweep on A: %d %s", cold.Code, cold.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("A's peer-filled sweep is not byte-identical to B's")
	}
	if n := sA.Stats().Simulations; n != 0 {
		t.Errorf("cold replica ran %d simulations with a warm peer, want 0", n)
	}
	st := sA.Stats().Cache
	if st.Tier("peer").Hits == 0 {
		t.Error("no peer-tier hits recorded on the cold replica")
	}
	if st.Tier("peer").Errors != 0 {
		t.Errorf("peer-tier errors = %d", st.Tier("peer").Errors)
	}

	// The fetched entries were promoted: a replay with B gone never leaves
	// the process.
	peerB.Close()
	replay := do(hA, "POST", "/v1/sweep", smallSweep)
	if replay.Code != 200 || !bytes.Equal(replay.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("promoted entries did not survive the peer going away")
	}
	if n := sA.Stats().Simulations; n != 0 {
		t.Errorf("replay after peer death ran %d simulations", n)
	}

	// And the peer-tier metrics are observable.
	m := do(hA, "GET", "/metrics", "")
	if !strings.Contains(m.Body.String(), `cdcs_cache_hits_total{tier="peer"} `) {
		t.Errorf("metrics missing peer tier:\n%s", m.Body)
	}
}

// TestCompressedWarmRestart mirrors TestWarmRestartServesFromDisk on the
// chunked tier: restart onto the same compressed cache directory, replay
// with zero simulations and byte-identical responses.
func TestCompressedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := testServer(t, Options{CacheDir: dir, CacheCompress: true})
	cold := do(h1, "POST", "/v1/sweep", smallSweep)
	if cold.Code != 200 {
		t.Fatalf("cold sweep: %d %s", cold.Code, cold.Body)
	}
	if s1.Stats().Simulations == 0 {
		t.Fatal("cold sweep ran no simulations")
	}
	s1.Close()

	s2, h2 := testServer(t, Options{CacheDir: dir, CacheCompress: true})
	warm := do(h2, "POST", "/v1/sweep", smallSweep)
	if warm.Code != 200 {
		t.Fatalf("warm sweep: %d %s", warm.Code, warm.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("chunked warm replay is not byte-identical")
	}
	if got := warm.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q, want hit", got)
	}
	if n := s2.Stats().Simulations; n != 0 {
		t.Errorf("restarted replica ran %d simulations, want 0", n)
	}
	disk := s2.Stats().Cache.Tier("disk")
	if disk.Hits == 0 {
		t.Error("no disk-tier hits on the chunked warm replica")
	}
	// The chunked tier reports both physical and logical occupancy, and
	// compression must pay even on this two-cell corpus (whose sub-chunk
	// entries get no cross-entry dedup — the ≤ 0.5 corpus-level ratio is
	// pinned on a realistic sweep corpus in resultstore and EXPERIMENTS.md).
	if disk.LogicalBytes == 0 || disk.Bytes == 0 {
		t.Fatalf("occupancy not reported: %+v", disk)
	}
	if disk.Bytes >= disk.LogicalBytes {
		t.Errorf("stored %d bytes for %d logical; compression did not pay",
			disk.Bytes, disk.LogicalBytes)
	}
	m := do(h2, "GET", "/metrics", "")
	if !strings.Contains(m.Body.String(), `cdcs_cache_logical_bytes{tier="disk"} `) {
		t.Errorf("metrics missing logical bytes:\n%s", m.Body)
	}
}

// TestCorruptChunkResimulatedByServer is the chunked twin of
// TestCorruptDiskEntryResimulatedByServer: damage every file the chunked
// tier wrote (each entry file holds the chunks its Put stored) under a
// restarted replica and requests re-simulate instead of failing, then the
// write-through repairs the store.
func TestCorruptChunkResimulatedByServer(t *testing.T) {
	dir := t.TempDir()
	s1, h1 := testServer(t, Options{CacheDir: dir, CacheCompress: true})
	cold := do(h1, "POST", "/v1/compare", smallCompare)
	if cold.Code != 200 {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body)
	}
	s1.Close()

	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".m") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x01
		n++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("damaged %d chunks, err=%v", n, err)
	}

	s2, h2 := testServer(t, Options{CacheDir: dir, CacheCompress: true})
	warm := do(h2, "POST", "/v1/compare", smallCompare)
	if warm.Code != 200 {
		t.Fatalf("after corruption: %d %s", warm.Code, warm.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("re-simulated response differs from the original")
	}
	if got := warm.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	if sims := s2.Stats().Simulations; sims != 1 {
		t.Errorf("simulations = %d, want 1", sims)
	}
	if s2.Stats().Cache.Tier("disk").Errors == 0 {
		t.Error("chunk corruption not counted in disk-tier errors")
	}
	s2.Close()
	s3, h3 := testServer(t, Options{CacheDir: dir, CacheCompress: true})
	again := do(h3, "POST", "/v1/compare", smallCompare)
	if again.Header().Get("X-Cache") != "hit" || s3.Stats().Simulations != 0 {
		t.Errorf("entry not repaired: X-Cache=%q, sims=%d",
			again.Header().Get("X-Cache"), s3.Stats().Simulations)
	}
}

// TestStoreInjection pins the dependency inversion: a caller-composed chain
// is used as-is, and conflicting cache settings are rejected loudly.
func TestStoreInjection(t *testing.T) {
	store := resultstore.Chain(resultstore.MemoryTier(8))
	s, h := testServer(t, Options{Store: store})
	if w := do(h, "POST", "/v1/compare", smallCompare); w.Code != 200 {
		t.Fatalf("compare: %d %s", w.Code, w.Body)
	}
	// The injected store saw the traffic.
	if store.Stats().Tiers[0].Misses == 0 {
		t.Error("injected store saw no lookups")
	}
	if got := len(s.Stats().Cache.Tiers); got != 1 {
		t.Errorf("server stats report %d tiers, want the injected chain's 1", got)
	}

	for _, bad := range []Options{
		{Store: store, CacheEntries: 16},
		{Store: store, CacheBytes: 1 << 20},
		{Store: store, CacheDir: t.TempDir()},
		{Store: store, Peers: []string{"http://x:1"}},
		{CacheCompress: true},     // requires CacheDir
		{CacheDiskBytes: 1 << 20}, // requires CacheDir
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v) accepted conflicting options", bad)
		}
	}
}
