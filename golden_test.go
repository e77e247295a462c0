package cdcs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"cdcs/internal/exp"
)

// The golden-run regression corpus: committed SHA-256 hashes of Compare
// output for all five schemes on the default 8×8 configuration, under a
// fixed-seed ST mix and a fixed-seed MT mix. Simulation is bit-deterministic,
// so any drift in these hashes means a change altered results at paper scale
// — placement and performance work (e.g. the pruned candidate search in
// internal/place, which must be a no-op at ≤256 tiles) cannot silently change
// numbers. Regenerate deliberately with:
//
//	go test -run TestGoldenStability -update-golden .
//
// and justify the refresh in the commit message.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json with freshly computed hashes")

const goldenPath = "testdata/golden.json"

// goldenFile is the committed corpus document.
type goldenFile struct {
	// Goarch records where the hashes were computed. Go floating point is
	// IEEE-deterministic but the compiler may fuse multiply-adds differently
	// across architectures, so the corpus only gates runs on the recorded
	// architecture (CI's) and skips elsewhere.
	Goarch string `json:"goarch"`
	// Entries maps "<mix>/<scheme>" to the SHA-256 of the scheme's Result
	// JSON, and "<mix>" to the SHA-256 of the whole Comparison JSON.
	Entries map[string]string `json:"entries"`
}

// goldenRequests returns the corpus inputs: every standard scheme on the
// paper's 8×8 chip, one 64-app single-threaded mix and one 8×8-thread
// multithreaded mix, plus a fully-committed 16×16 chip (256 banks — exactly
// internal/place's PruneThreshold, so the exhaustive/pruned placement
// boundary itself is pinned: any off-by-one in the threshold or drift in
// the exhaustive path at its largest extent changes these hashes) and a
// 64×64 chip (4096 banks — the stride-4 candidate-lattice regime of the
// pruned search and the arena-backed kilo-tile hot path, and the largest
// mesh the flat pipeline handles), and a 128×128 chip (16,384 banks — the
// lazy-topology + hierarchical two-level placement regime, so the coarse
// cluster pass, interior refinement, and parallel merge are all pinned
// bit-for-bit). Fixed seeds throughout.
//
// Three entries allocate less than the chip holds, so they pin the path
// where latency-aware Peekahead stops at zero marginal utility: the
// undercommitted §II-B case-study mix on 8×8 ("cs"), a 4-app 8×8 mix
// ("st4"), and 1024 apps on 128×128 ("st128x1024", one app per 16 tiles).
//
// "st48" is the opposite regime in the flat pipeline: 144 apps (one per 16
// tiles) on a 48×48 chip whose allocation fills every line. A fully
// committed chip is where the §IV-F trade spiral does the most work (no free
// space to move into, so every gain is a trade), which makes it the slow
// case of data placement and the one its optimisations must keep bit-exact.
// Seed 17 is the first seed from 1 upward whose mix fills the chip under the
// default configuration; seeds 1-16 each leave some of it unallocated.
//
// Three entries pin the regimes of step 2's pruned center search (the
// optimistic VC placement of internal/place/prune.go) that the square
// shapes above leave out:
//   - "st32": 64 apps on 32×32, the smallest pruned chip and its stride-2
//     candidate lattice (kilotile-cold's smallest cell size).
//   - "st45x37": 104 apps on a ragged 45×37 flat chip. Its stride-3 lattice
//     does not divide 37, so the last lattice row is short, and the chip
//     center is not a lattice point, so the pruned scan scores it apart.
//   - "st72": 324 apps on 72×72, hierarchical. Its 5-wide clusters leave a
//     2-wide edge, so the coarse chip's bank capacities are not uniform and
//     step 2 on the coarse mesh takes its ragged-capacity path.
func goldenRequests() map[string]CompareRequest {
	cfg16 := DefaultConfig()
	cfg16.MeshWidth, cfg16.MeshHeight = 16, 16
	cfg32 := DefaultConfig()
	cfg32.MeshWidth, cfg32.MeshHeight = 32, 32
	cfg45x37 := DefaultConfig()
	cfg45x37.MeshWidth, cfg45x37.MeshHeight = 45, 37
	cfg48 := DefaultConfig()
	cfg48.MeshWidth, cfg48.MeshHeight = 48, 48
	cfg64 := DefaultConfig()
	cfg64.MeshWidth, cfg64.MeshHeight = 64, 64
	cfg72 := DefaultConfig()
	cfg72.MeshWidth, cfg72.MeshHeight = 72, 72
	cfg128 := DefaultConfig()
	cfg128.MeshWidth, cfg128.MeshHeight = 128, 128
	return map[string]CompareRequest{
		"st":    {Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 64}, Seed: 1},
		"mt":    {Mix: MixSpec{Kind: MixRandomMT, Seed: 42, N: 8}, Seed: 1},
		"st16":  {Config: &cfg16, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 256}, Seed: 1},
		"st48":  {Config: &cfg48, Mix: MixSpec{Kind: MixRandom, Seed: 17, N: 144}, Seed: 1},
		"st64":  {Config: &cfg64, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 256}, Seed: 1},
		"st128": {Config: &cfg128, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 256}, Seed: 1},
		"cs":    {Mix: MixSpec{Kind: MixCaseStudy}, Seed: 1},
		"st4":   {Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 4}, Seed: 1},

		"st128x1024": {Config: &cfg128, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 1024}, Seed: 1},

		"st32":    {Config: &cfg32, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 64}, Seed: 1},
		"st45x37": {Config: &cfg45x37, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 104}, Seed: 1},
		"st72":    {Config: &cfg72, Mix: MixSpec{Kind: MixRandom, Seed: 42, N: 324}, Seed: 1},
	}
}

// goldenExperiments lists internal/exp reports whose JSON (full-precision
// Series and Scalars, not the 3-decimal text) is pinned at quick scale.
// sec6c-bank is the only route from a scheme into whole-bank (quantized)
// Peekahead allocation.
var goldenExperiments = []string{"sec6c-bank"}

// computeGolden evaluates the corpus and returns its entry map.
func computeGolden(t *testing.T) map[string]string {
	t.Helper()
	sum := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	entries := map[string]string{}
	for name, req := range goldenRequests() {
		cmp, err := req.Run(RunOptions{})
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		entries[name] = sum(cmp)
		for _, scheme := range SchemeNames() {
			res, ok := cmp.Results[scheme]
			if !ok {
				t.Fatalf("golden %s: scheme %s missing from comparison", name, scheme)
			}
			entries[name+"/"+scheme] = sum(res)
		}
	}
	for _, id := range goldenExperiments {
		rep, err := exp.Run(id, exp.QuickOptions())
		if err != nil {
			t.Fatalf("golden %s: %v", id, err)
		}
		entries[id] = sum(rep)
	}
	return entries
}

// TestGoldenStability fails on any bit-level drift of Compare output against
// the committed corpus. It runs only on the corpus's recorded architecture;
// use -update-golden to regenerate after an intentional change.
func TestGoldenStability(t *testing.T) {
	if *updateGolden {
		entries := computeGolden(t)
		doc, err := json.MarshalIndent(goldenFile{Goarch: runtime.GOARCH, Entries: entries}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(doc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries for %s", goldenPath, len(entries), runtime.GOARCH)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden corpus (regenerate with -update-golden): %v", err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if golden.Goarch != runtime.GOARCH {
		t.Skipf("golden corpus recorded on %s, running on %s", golden.Goarch, runtime.GOARCH)
	}

	got := computeGolden(t)
	var keys []string
	for k := range golden.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	drifted := 0
	for _, k := range keys {
		if got[k] != golden.Entries[k] {
			drifted++
			t.Errorf("golden %-14s drifted:\n  committed %s\n  computed  %s", k, golden.Entries[k], got[k])
		}
	}
	for k := range got {
		if _, ok := golden.Entries[k]; !ok {
			t.Errorf("golden corpus missing entry %q (regenerate with -update-golden)", k)
		}
	}
	if drifted > 0 {
		t.Logf("%d of %d golden entries drifted — if the change is intentional, rerun with -update-golden and explain why", drifted, len(keys))
	}
}

// TestGoldenCorpusShape sanity-checks the committed document itself, so a
// truncated or hand-edited corpus fails loudly on every architecture.
func TestGoldenCorpusShape(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden corpus: %v", err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.Goarch == "" {
		t.Error("golden corpus missing goarch")
	}
	wantKeys := len(goldenExperiments)
	for _, id := range goldenExperiments {
		if h := golden.Entries[id]; len(h) != 64 {
			t.Errorf("entry %q is not a SHA-256 hex digest: %q", id, h)
		}
	}
	for name := range goldenRequests() {
		wantKeys += 1 + len(SchemeNames())
		if _, ok := golden.Entries[name]; !ok {
			t.Errorf("missing comparison entry %q", name)
		}
		for _, scheme := range SchemeNames() {
			key := fmt.Sprintf("%s/%s", name, scheme)
			h, ok := golden.Entries[key]
			if !ok {
				t.Errorf("missing entry %q", key)
				continue
			}
			if len(h) != 64 {
				t.Errorf("entry %q is not a SHA-256 hex digest: %q", key, h)
			}
		}
	}
	if len(golden.Entries) != wantKeys {
		t.Errorf("corpus has %d entries, want %d", len(golden.Entries), wantKeys)
	}
}
