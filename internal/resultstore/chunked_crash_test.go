package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestChunkedCrashPoints lays out on disk, deterministically, what a crash
// leaves at each point of a chunked Put and of an eviction, and requires
// every such directory to reopen to verified hits or clean misses: no
// errors, accounting that matches the files, and every chunk record
// pointing at a file that holds its chunk.
//
// The store holds three neighboring cells, oldest first: k0's file holds
// the body chunks all three share, and k1's and k2's hold only their own
// first chunks.
func TestChunkedCrashPoints(t *testing.T) {
	vals := map[string][]byte{}
	keys := make([]string, 4)
	for i, v := range corpus(4, 20<<10) {
		keys[i] = fmt.Sprintf("%02x%062x", 0x10*(i+1), i)
		vals[keys[i]] = v
	}
	setup := func(t *testing.T) (string, *ChunkedDisk) {
		t.Helper()
		dir := t.TempDir()
		d := openChunked(t, dir, 0)
		for i, k := range keys[:3] {
			d.Put(k, vals[k])
			at := time.Now().Add(time.Duration(i-3) * time.Hour)
			if err := os.Chtimes(d.path(manifestName(k)), at, at); err != nil {
				t.Fatal(err)
			}
		}
		return dir, d
	}
	// written returns the entry file a Put of k writes into a store that
	// holds what dir holds.
	written := func(t *testing.T, dir, k string) []byte {
		t.Helper()
		other := t.TempDir()
		copyTree(t, dir, other)
		d := openChunked(t, other, 0)
		d.Put(k, vals[k])
		raw, err := os.ReadFile(d.path(manifestName(k)))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	t.Run("temp file left unrenamed", func(t *testing.T) {
		dir, d := setup(t)
		path := d.path(manifestName(keys[3]))
		if _, ok := d.stage(path, written(t, dir, keys[3])); !ok {
			t.Fatal("stage failed")
		}
		hits := reopenVerified(t, dir, 0, vals)
		if len(hits) != 3 || hits[keys[3]] {
			t.Errorf("hits %v, want the three installed entries", hits)
		}
	})

	t.Run("file published, not indexed", func(t *testing.T) {
		// The Put of k3 renamed its file into place, then crashed before
		// indexing it and evicting past the cap: Open evicts instead.
		dir, d := setup(t)
		full := d.Stats().Bytes
		raw := written(t, dir, keys[3])
		path := d.path(manifestName(keys[3]))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		uncapped := t.TempDir()
		copyTree(t, dir, uncapped)
		if hits := reopenVerified(t, uncapped, 0, vals); len(hits) != 4 {
			t.Errorf("hits %v, want all four entries", hits)
		}
		// Under the cap the first three filled, k0 goes first, which frees
		// nothing, as its file becomes a pack, then k1.
		if hits := reopenVerified(t, dir, full, vals); len(hits) != 2 || !hits[keys[2]] || !hits[keys[3]] {
			t.Errorf("hits %v, want k2 and k3", hits)
		}
	})

	t.Run("evicted entry still holds a referenced chunk", func(t *testing.T) {
		dir, d := setup(t)
		// A cap one byte under occupancy evicts k0, which frees nothing, as
		// its file becomes a pack holding the shared body, and then k1.
		hits := reopenVerified(t, dir, d.Stats().Bytes-1, vals)
		if len(hits) != 1 || !hits[keys[2]] {
			t.Fatalf("hits %v, want k2 alone", hits)
		}
		packs := readTree(t, filepath.Join(dir, "c"))
		if len(packs) != 1 {
			t.Fatalf("%d files under c/, want k0's pack", len(packs))
		}
		// The crash came after the eviction, before the rename: k0's file
		// still lies where an entry's does, and Open finds the entry again.
		for rel := range packs {
			if err := os.Rename(filepath.Join(dir, "c", rel), d.path(manifestName(keys[0]))); err != nil {
				t.Fatal(err)
			}
		}
		if hits := reopenVerified(t, dir, 0, vals); len(hits) != 2 || !hits[keys[0]] || !hits[keys[2]] {
			t.Errorf("hits %v, want k0 back beside k2", hits)
		}
	})
}

// reopenVerified opens the chunked tier in dir under maxBytes and reads
// every key: each must be a hit with its exact bytes or a clean miss. The
// open must sweep what a crash left, count no error, and leave accounting
// that matches the files, and a second open must find the same store. It
// returns the keys that hit.
func reopenVerified(t *testing.T, dir string, maxBytes int64, vals map[string][]byte) map[string]bool {
	t.Helper()
	d := openChunked(t, dir, maxBytes)
	hits := map[string]bool{}
	for k, v := range vals {
		got, ok := d.Get(k)
		if ok && !bytes.Equal(got, v) {
			t.Errorf("%.8s: served bytes differ from what was put", k)
		}
		if ok {
			hits[k] = true
		}
	}
	st := d.Stats()
	if st.Errors != 0 || st.Bytes != diskOccupancy(t, dir) {
		t.Errorf("stats %+v, on disk %d", st, diskOccupancy(t, dir))
	}
	checkChunkRecords(t, d)
	for rel := range readTree(t, dir) {
		if !strings.HasSuffix(rel, manifestSuffix) && !strings.HasSuffix(rel, packSuffix) && !strings.HasSuffix(rel, chunkSuffix) {
			t.Errorf("%s survived the open", rel)
		}
	}
	if st2 := openChunked(t, dir, maxBytes).Stats(); st2.Entries != st.Entries || st2.Bytes != st.Bytes || st2.LogicalBytes != st.LogicalBytes || st2.Errors != 0 {
		t.Errorf("second open found %+v, want %+v", st2, st)
	}
	return hits
}

// TestChunkedReopenFindsIndexedCopy: a chunk whose every reference went can
// stay on disk, in a pack kept for the chunks beside it, and a later Put
// then writes the chunk again, into a file of its own. Open must index the
// copy the store indexed, the newer one, or it would keep the wrong file
// and sweep the right one. Here the stale copy's pack sorts first.
func TestChunkedReopenFindsIndexedCopy(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	whole := randBytes(41, 20<<10)
	chunks := splitChunks(whole)
	if len(chunks) < 3 {
		t.Fatalf("%d chunks, want 3 or more", len(chunks))
	}
	first, rest := chunks[0], whole[len(chunks[0]):]
	key := func(c byte) string { return strings.Repeat(string(c), 64) }
	evict := func(k string) {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.removeLocked(d.idx[manifestName(k)], true)
	}
	d.Put(key('a'), whole) // holds every chunk
	d.Put(key('b'), rest)  // references all but the first
	d.Put(key('c'), first) // references the first
	evict(key('a'))        // a's file becomes a pack
	evict(key('c'))        // the first chunk's last reference goes; the pack stays for the rest
	d.Put(key('d'), first) // writes the first chunk again
	d.Put(key('e'), first) // references d's copy
	evict(key('d'))        // d's file becomes a pack too
	if packs := readTree(t, d.chunkRoot); len(packs) != 2 {
		t.Fatalf("%d packs, want a's and d's", len(packs))
	}
	checkChunkRecords(t, d)
	if hits := reopenVerified(t, dir, 0, map[string][]byte{key('b'): rest, key('e'): first}); len(hits) != 2 {
		t.Errorf("hits %v, want b and e", hits)
	}
	st := d.Stats()
	if st2 := openChunked(t, dir, 0).Stats(); st2.Bytes != st.Bytes || st2.Entries != st.Entries {
		t.Errorf("reopen found %+v, want %+v", st2, st)
	}
}
