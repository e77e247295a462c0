package resultstore

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// The format-compatibility fixture: testdata/compat holds one directory per
// persistent format (disk/, chunked/), written by an earlier build, and
// want.json records the entries they hold and the Stats that build
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
	"disk":    func(dir string) (Tier, error) { return OpenDisk(dir, 0) },
	"chunked": func(dir string) (Tier, error) { return OpenChunkedDisk(dir, 0) },
}

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

// TestFormatCompatibility opens the committed directories of both formats
// and requires every entry back byte for byte, with the recorded occupancy.
func TestFormatCompatibility(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(compatDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want compatFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
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
// write exactly the committed manifest and chunk files, byte for byte, so
// a store written by this build reads back under the build that wrote the
// fixture as well. It pins the chunking, the compressor's output and the
// manifest framing together.
func TestChunkedWritesCompatFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(compatDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want compatFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	for _, e := range want.Entries {
		d.Put(e.Key, e.Value)
	}
	st := d.Stats()
	if got := (compatStats{Entries: st.Entries, Bytes: st.Bytes, LogicalBytes: st.LogicalBytes}); got != want.Tiers["chunked"] {
		t.Errorf("occupancy after writing = %+v, recorded %+v", got, want.Tiers["chunked"])
	}
	got, fixture := readTree(t, dir), readTree(t, filepath.Join(compatDir, "chunked"))
	for path, b := range fixture {
		if g, ok := got[path]; !ok {
			t.Errorf("%s: not written", path)
		} else if !bytes.Equal(g, b) {
			t.Errorf("%s: written bytes differ from the fixture's", path)
		}
	}
	for path := range got {
		if _, ok := fixture[path]; !ok {
			t.Errorf("%s: written, but not in the fixture", path)
		}
	}
}
