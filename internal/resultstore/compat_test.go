package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The format-compatibility fixture: testdata/compat holds one directory per
// persistent format, written by the build that introduced it — disk/, the
// whole-entry format; chunked/, the chunked format's first layout, one file
// per chunk; chunked-v2/, its current layout, one file per entry — and
// want.json records the entries they hold and the Stats each build
// reported. A replica restarted onto a new binary keeps its warm cache only
// if the new code serves those files unchanged, so the fixture is a fixed
// reference: the code under test never rewrites it. The entries are four
// near-identical JSON result bodies (the shape of neighboring sweep cells,
// so the chunked format shares and compresses chunks), an empty payload,
// and a key the tiers rehash because it is not a safe file name.
const compatDir = "testdata/compat"

// compatFile is want.json.
type compatFile struct {
	Entries []compatEntry          `json:"entries"`
	Tiers   map[string]compatStats `json:"tiers"`
}

// compatEntry is one stored address and its payload.
type compatEntry struct {
	Key   string `json:"key"`
	Value []byte `json:"value"`
}

// compatStats is the occupancy a format reported after storing the entries.
type compatStats struct {
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	LogicalBytes int64 `json:"logical_bytes"`
}

// compatFormats opens each persistent format by its fixture directory name.
var compatFormats = map[string]func(dir string) (Tier, error){
	"disk":       func(dir string) (Tier, error) { return OpenDisk(dir, 0) },
	"chunked":    func(dir string) (Tier, error) { return OpenChunkedDisk(dir, 0) },
	"chunked-v2": func(dir string) (Tier, error) { return OpenChunkedDisk(dir, 0) },
}

// compatWritten is the fixture directory the chunked tier's writes must
// reproduce: the current layout's.
const compatWritten = "chunked-v2"

// copyTree copies the fixture directory src into dst, so a test that
// reads (and touches, or drops) entries never changes the committed files.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if de.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readCompat reads want.json.
func readCompat(t *testing.T) compatFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(compatDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want compatFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFormatCompatibility opens the committed directory of every format
// and layout and requires every entry back byte for byte, with the
// recorded occupancy.
func TestFormatCompatibility(t *testing.T) {
	want := readCompat(t)
	if len(want.Tiers) != len(compatFormats) {
		t.Fatalf("want.json records %d formats, want %d", len(want.Tiers), len(compatFormats))
	}
	for name, open := range compatFormats {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join(compatDir, name), dir)
			tier, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st := tier.Stats()
			if got := (compatStats{Entries: st.Entries, Bytes: st.Bytes, LogicalBytes: st.LogicalBytes}); got != want.Tiers[name] {
				t.Errorf("occupancy at open = %+v, recorded %+v", got, want.Tiers[name])
			}
			for _, e := range want.Entries {
				if got, ok := tier.Get(e.Key); !ok || !bytes.Equal(got, e.Value) {
					t.Errorf("%.16s: ok=%v, bytes equal=%v", e.Key, ok, bytes.Equal(got, e.Value))
				}
			}
			if st := tier.Stats(); st.Errors != 0 || st.Hits != int64(len(want.Entries)) {
				t.Errorf("after reading every entry: %+v", st)
			}
		})
	}
}

// readTree returns every file under dir by path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestChunkedWritesCompatFixture is the write side of the compatibility
// contract: storing the fixture's entries in an empty chunked tier must
// write exactly the committed files of the current layout, byte for byte,
// so a store written by this build reads back under the build that wrote
// the fixture as well. It pins the chunking, the compressor's output and
// the entry-file framing together. The first layout's directory stays as
// its build wrote it; TestFormatCompatibility reads it.
func TestChunkedWritesCompatFixture(t *testing.T) {
	want := readCompat(t)
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	for _, e := range want.Entries {
		d.Put(e.Key, e.Value)
	}
	st := d.Stats()
	if got := (compatStats{Entries: st.Entries, Bytes: st.Bytes, LogicalBytes: st.LogicalBytes}); got != want.Tiers[compatWritten] {
		t.Errorf("occupancy after writing = %+v, recorded %+v", got, want.Tiers[compatWritten])
	}
	got, fixture := readTree(t, dir), readTree(t, filepath.Join(compatDir, compatWritten))
	for path, b := range fixture {
		if g, ok := got[path]; !ok {
			t.Errorf("%s: not written", path)
		} else if !bytes.Equal(g, b) {
			t.Errorf("%s: written bytes differ from the fixture's", path)
		}
	}
	for path, b := range got {
		if _, ok := fixture[path]; !ok {
			t.Errorf("%s: written, but not in the fixture", path)
		}
		// An older build's manifest decoder checks for the first format's
		// magic, so it refuses these files rather than misreading them.
		if !bytes.HasPrefix(b, []byte(chunkedMagic)) || bytes.HasPrefix(b, []byte(chunkedMagicV1)) {
			t.Errorf("%s: does not start with this format's magic", path)
		}
	}
}

// TestChunkedMixedLayouts: a store that holds both layouts — the first
// layout's fixture, and entries of this layout Put beside it, which
// reference the fixture's chunk files instead of writing those chunks
// again — serves every entry and reopens to equal Stats. Evicting first-
// layout entries deletes only the chunk files no live entry references.
func TestChunkedMixedLayouts(t *testing.T) {
	want := readCompat(t)
	dir := t.TempDir()
	copyTree(t, filepath.Join(compatDir, "chunked"), dir)
	legacyManifests := diskOccupancy(t, filepath.Join(dir, "m"))
	legacyChunks := len(readTree(t, filepath.Join(dir, "c")))
	d := openChunked(t, dir, 0)
	vals := map[string][]byte{}
	for _, e := range want.Entries {
		vals[e.Key] = e.Value
	}
	// Each fixture body behind a header of its own: a new first chunk, the
	// rest the fixture's.
	var fresh []string
	for i, e := range want.Entries {
		if len(splitChunks(e.Value)) < 2 {
			continue
		}
		key := fmt.Sprintf("%064x", 0xf00+i)
		vals[key] = append([]byte(fmt.Sprintf(`{"fresh":%d,`, i)), e.Value[1:]...)
		d.Put(key, vals[key])
		fresh = append(fresh, key)
	}
	if len(fresh) == 0 {
		t.Fatal("the fixture holds no entry large enough to share chunks")
	}
	shared := 0
	for _, key := range fresh {
		_, m, _ := d.lookup(manifestName(key))
		for _, ci := range m.chunks {
			if strings.HasSuffix(ci.file.name, chunkSuffix) {
				shared++
			}
		}
	}
	if compressed, _, files := d.Work(); shared == 0 || files != int64(len(fresh)) || compressed >= int64(shared) {
		t.Fatalf("%d chunks compressed, %d files written, %d references to first-layout chunk files", compressed, files, shared)
	}
	st := d.Stats()
	if st.Errors != 0 || st.Bytes != diskOccupancy(t, dir) {
		t.Errorf("stats %+v, on disk %d", st, diskOccupancy(t, dir))
	}
	checkChunkRecords(t, d)
	if hits := reopenVerified(t, dir, 0, vals); len(hits) != len(vals) {
		t.Errorf("%d of %d entries served after a reopen", len(hits), len(vals))
	}
	if st2 := openChunked(t, dir, 0).Stats(); st2.Entries != st.Entries || st2.Bytes != st.Bytes || st2.LogicalBytes != st.LogicalBytes {
		t.Errorf("reopen found %+v, want %+v", st2, st)
	}

	// Age the first-layout entries, then reopen under a cap that evicts
	// some of them: the new entries still serve from the chunk files.
	old := time.Now().Add(-time.Hour)
	for _, e := range want.Entries {
		if err := os.Chtimes(d.path(manifestName(e.Key)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	hits := reopenVerified(t, dir, st.Bytes-legacyManifests/2, vals)
	if len(hits) == len(vals) {
		t.Fatal("the cap evicted nothing")
	}
	for _, key := range fresh {
		if !hits[key] {
			t.Errorf("%.16s lost chunks to evicting first-layout entries", key)
		}
	}
	if left := len(readTree(t, d.chunkRoot)); left == 0 || left == legacyChunks {
		t.Errorf("%d of %d first-layout chunk files left: want those the new entries reference, and no other", left, legacyChunks)
	}
}
