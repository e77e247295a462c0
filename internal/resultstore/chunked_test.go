package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func openChunked(t *testing.T, dir string, maxBytes int64) *ChunkedDisk {
	t.Helper()
	d, err := OpenChunkedDisk(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// corpus builds near-identical payloads: a shared body with a small
// per-entry header, the shape of neighboring sweep cells.
func corpus(n, size int) [][]byte {
	body := randBytes(42, size)
	out := make([][]byte, n)
	for i := range out {
		out[i] = append([]byte(fmt.Sprintf("entry-%04d:", i)), body...)
	}
	return out
}

func TestChunkedRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	vals := corpus(4, 40<<10)
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}
	for i, v := range vals {
		got, ok := d.Get(fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("k%d: ok=%v, bytes equal=%v", i, ok, bytes.Equal(got, v))
		}
	}
	if _, ok := d.Get("absent"); ok {
		t.Error("absent key reported present")
	}
	st := d.Stats()
	if st.Entries != 4 || st.Hits != 4 || st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}

	// A fresh open over the same directory must rebuild identical
	// accounting from the files alone and still serve every entry.
	d2 := openChunked(t, dir, 0)
	st2 := d2.Stats()
	if st2.Entries != st.Entries || st2.Bytes != st.Bytes || st2.LogicalBytes != st.LogicalBytes {
		t.Errorf("reopen accounting drifted: %+v vs %+v", st2, st)
	}
	if len(d2.chunks) != len(d.chunks) {
		t.Errorf("reopen chunk count %d, want %d", len(d2.chunks), len(d.chunks))
	}
	for i, v := range vals {
		if got, ok := d2.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("reopened k%d unreadable", i)
		}
	}
}

// TestChunkedDedupAndCompression pins the tentpole's storage win: entries
// sharing most of their bytes share most of their chunks, so physical
// occupancy stays far below payload volume.
func TestChunkedDedupAndCompression(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	vals := corpus(8, 50<<10)
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}
	st := d.Stats()
	var logical int64
	for _, v := range vals {
		logical += int64(len(v))
	}
	if st.LogicalBytes != logical {
		t.Errorf("LogicalBytes = %d, want %d", st.LogicalBytes, logical)
	}
	if st.Bytes >= st.LogicalBytes/2 {
		t.Errorf("stored %d bytes for %d logical (ratio %.2f), want ≤ 0.5 on a near-duplicate corpus",
			st.Bytes, st.LogicalBytes, float64(st.Bytes)/float64(st.LogicalBytes))
	}
	// Chunk dedup, not just compression: 8 copies of one body must not
	// store 8 copies of its chunks.
	if perEntry := 8 * len(splitChunks(vals[0])); len(d.chunks) >= perEntry {
		t.Errorf("%d unique chunks for 8 near-identical entries (%d without dedup)", len(d.chunks), perEntry)
	}

	// Bytes must equal what is actually on disk.
	var onDisk int64
	err := filepath.Walk(d.dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != onDisk {
		t.Errorf("Stats().Bytes = %d, on-disk total = %d", st.Bytes, onDisk)
	}
}

// TestChunkedCorruptChunkMissAndRepair mirrors Disk's corrupt-entry
// contract at chunk granularity: a rotten chunk degrades every entry that
// references it to a miss, counts errors, and a fresh Put repairs them.
func TestChunkedCorruptChunkMissAndRepair(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	vals := corpus(3, 30<<10)
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}

	// Flip one byte in every chunk file: all entries become unservable.
	damaged := 0
	err := filepath.Walk(filepath.Join(dir, "c"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, chunkSuffix) {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x40
		damaged++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || damaged == 0 {
		t.Fatalf("damaged %d chunks, err=%v", damaged, err)
	}

	for i := range vals {
		if _, ok := d.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d served from corrupt chunks", i)
		}
	}
	if errs := d.Stats().Errors; errs == 0 {
		t.Error("corruption not counted in Errors")
	}
	if d.Stats().Entries != 0 {
		t.Errorf("%d entries survive store-wide corruption, want 0", d.Stats().Entries)
	}

	// Put repairs: the same keys round-trip again, fully verified.
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}
	for i, v := range vals {
		if got, ok := d.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("k%d not repaired by rewrite", i)
		}
	}
}

func TestChunkedTruncatedManifestDroppedAtOpen(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	d.Put("keep", randBytes(1, 20<<10))
	d.Put("torn", randBytes(2, 20<<10))

	// Truncate one manifest mid-frame, as a crash during write would if the
	// write were not atomic.
	torn := d.path(manifestName("torn"))
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openChunked(t, dir, 0)
	if _, ok := d2.Get("torn"); ok {
		t.Error("truncated manifest served")
	}
	if got, ok := d2.Get("keep"); !ok || len(got) != 20<<10 {
		t.Error("intact entry lost while sweeping a torn manifest")
	}
	if d2.Stats().Errors == 0 {
		t.Error("torn manifest not counted in Errors")
	}
	// The torn entry's unshared chunks are orphans now; the sweep must have
	// removed them so accounting matches disk.
	var onDisk int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	if st := d2.Stats(); st.Bytes != onDisk {
		t.Errorf("Bytes = %d after sweep, on disk = %d", st.Bytes, onDisk)
	}
}

// TestChunkedMissingChunkIsMiss covers the other corruption shape: the
// manifest is intact but a chunk file vanished underneath it.
func TestChunkedMissingChunkIsMiss(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	val := randBytes(5, 30<<10)
	d.Put("k", val)

	removed := 0
	filepath.Walk(filepath.Join(d.dir, "c"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && removed == 0 {
			os.Remove(path)
			removed++
		}
		return nil
	})
	if removed != 1 {
		t.Fatal("no chunk file found to remove")
	}
	if _, ok := d.Get("k"); ok {
		t.Error("entry served with a chunk missing")
	}
	if d.Stats().Errors == 0 {
		t.Error("missing chunk not counted in Errors")
	}
	d.Put("k", val)
	if got, ok := d.Get("k"); !ok || !bytes.Equal(got, val) {
		t.Error("entry not repaired after rewrite")
	}
}

// TestChunkedEvictionRespectsSharedChunks: evicting an entry must only
// delete chunks nothing else references, and the cap works against
// physical (deduped, compressed) occupancy.
func TestChunkedEvictionRespectsSharedChunks(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	vals := corpus(6, 30<<10)
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}
	full := d.Stats().Bytes

	// Reopen with a cap just below current occupancy. Evicting an entry
	// only frees its manifest and its unshared chunks (here, the first
	// chunk, which covers the per-entry header) — the shared body chunks
	// stay as long as any survivor references them — so a near-full cap is
	// satisfiable by dropping the oldest entry or two.
	capBytes := full - 1000
	d2 := openChunked(t, dir, capBytes)
	st := d2.Stats()
	if st.Bytes > capBytes {
		t.Errorf("occupancy %d exceeds cap %d after eviction", st.Bytes, capBytes)
	}
	if st.Entries == 0 || st.Entries == len(vals) {
		t.Errorf("eviction left %d/%d entries; want some but not all", st.Entries, len(vals))
	}
	if st.Evictions == 0 {
		t.Error("evictions not counted")
	}
	survivors := 0
	for i, v := range vals {
		if got, ok := d2.Get(fmt.Sprintf("k%d", i)); ok {
			survivors++
			if !bytes.Equal(got, v) {
				t.Fatalf("surviving k%d corrupted by eviction of its siblings", i)
			}
		}
	}
	if survivors != st.Entries {
		t.Errorf("%d entries readable, stats say %d", survivors, st.Entries)
	}
	// The newest entry is never evicted.
	if _, ok := d2.Get(fmt.Sprintf("k%d", len(vals)-1)); !ok {
		t.Error("newest entry was evicted")
	}
}

func TestChunkedReplaceReleasesOldChunks(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	d.Put("k", randBytes(9, 40<<10))
	after1 := d.Stats()
	d.Put("k", randBytes(10, 40<<10)) // unrelated content: no shared chunks
	after2 := d.Stats()
	if after2.Entries != 1 {
		t.Fatalf("entries = %d after replace, want 1", after2.Entries)
	}
	// Occupancy must reflect only the new content — the old generation's
	// chunks were dereferenced and deleted, not leaked.
	if after2.Bytes > after1.Bytes*3/2 {
		t.Errorf("occupancy grew from %d to %d on in-place replace; old chunks leaked", after1.Bytes, after2.Bytes)
	}
	if after2.LogicalBytes != 40<<10 {
		t.Errorf("LogicalBytes = %d, want %d", after2.LogicalBytes, 40<<10)
	}
}

// TestChunkedIdenticalRePut guards the generation handoff: re-storing a key
// with the same bytes must keep every shared chunk alive (the new
// generation's references are taken before the old one's are dropped) and
// leave accounting unchanged.
func TestChunkedIdenticalRePut(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	val := randBytes(21, 30<<10)
	d.Put("k", val)
	before := d.Stats()
	d.Put("k", val)
	if got, ok := d.Get("k"); !ok || !bytes.Equal(got, val) {
		t.Fatal("entry unreadable after identical re-Put")
	}
	after := d.Stats()
	if after.Entries != 1 || after.Bytes != before.Bytes || after.LogicalBytes != before.LogicalBytes {
		t.Errorf("accounting drifted on identical re-Put: %+v vs %+v", after, before)
	}
	if len(d.chunks) == 0 {
		t.Error("chunks vanished on identical re-Put")
	}
}

func TestChunkedEmptyValue(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	d.Put("empty", nil)
	if got, ok := d.Get("empty"); !ok || len(got) != 0 {
		t.Errorf("empty entry: ok=%v len=%d", ok, len(got))
	}
	d2 := openChunked(t, dir, 0)
	if got, ok := d2.Get("empty"); !ok || len(got) != 0 {
		t.Errorf("empty entry after reopen: ok=%v len=%d", ok, len(got))
	}
}

// diskOccupancy sums the sizes of every file under dir.
func diskOccupancy(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestChunkedMissingSharedChunkIsRewritten: a chunk file that vanishes while
// other entries still reference it must be dropped store-wide, so the next
// Put of an entry that uses it writes it again. Keeping it in the refcount
// map would make Put skip the write, and the rewritten entry would miss on
// every Get. The entry that still references the old chunk record must not
// release the rewritten one when it is dropped in turn.
func TestChunkedMissingSharedChunkIsRewritten(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	vals := corpus(2, 30<<10)
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}
	if err := os.RemoveAll(filepath.Join(d.dir, "c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k0"); ok {
		t.Fatal("k0 served with its chunk files gone")
	}
	d.Put("k0", vals[0])
	if got, ok := d.Get("k0"); !ok || !bytes.Equal(got, vals[0]) {
		t.Fatalf("rewritten k0: ok=%v, errors=%d", ok, d.Stats().Errors)
	}
	// k1's own first chunk is still missing: it misses and is dropped,
	// which must leave the chunks k0 shares with it in place.
	if _, ok := d.Get("k1"); ok {
		t.Fatal("k1 served with its first chunk gone")
	}
	if got, ok := d.Get("k0"); !ok || !bytes.Equal(got, vals[0]) {
		t.Fatal("dropping k1 damaged the chunks rewritten for k0")
	}
	if st := d.Stats(); st.Entries != 1 || st.Errors != 2 || st.Bytes != diskOccupancy(t, d.dir) {
		t.Errorf("stats = %+v, on disk = %d", st, diskOccupancy(t, d.dir))
	}
}

// TestChunkedForgedLengthDroppedAtOpen: a manifest whose payload length
// field is damaged must be refused, not trusted to size the read buffer.
func TestChunkedForgedLengthDroppedAtOpen(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	d.Put("k", randBytes(3, 20<<10))
	path := d.path(manifestName("k"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(raw[len(chunkedMagic)+sha256.Size:], 1<<62)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openChunked(t, dir, 0)
	if _, ok := d2.Get("k"); ok {
		t.Error("manifest with a forged length served")
	}
	if st := d2.Stats(); st.Entries != 0 || st.Errors != 1 || st.LogicalBytes != 0 {
		t.Errorf("stats = %+v, want the forged manifest dropped at open", st)
	}
}

// TestChunkedConcurrentPutGetEvict runs Puts of overlapping neighboring
// entries into a small-capped store, which evicts all the time, next to
// Gets. Every Get must return the exact bytes or miss, and reads racing
// eviction are misses, not errors. In "failing-manifests", a third of the
// Puts cannot write their manifests (their shard directory is a file), so
// they give back pins on chunks that concurrent Puts install: none of
// those may go. Once the goroutines finish, the accounting must match the
// files, no chunk file may lack a record, every indexed entry must read
// back verified, and a reopen must find the same store and sweep nothing.
func TestChunkedConcurrentPutGetEvict(t *testing.T) {
	for _, failing := range []bool{false, true} {
		name := "clean"
		if failing {
			name = "failing-manifests"
		}
		t.Run(name, func(t *testing.T) { concurrentPutGetEvict(t, failing) })
	}
}

func concurrentPutGetEvict(t *testing.T, failing bool) {
	const (
		nKeys   = 24
		putters = 3
		getters = 2
		rounds  = 80
		maxDisk = 24 << 10 // the three bodies and a few entries' own chunks
	)
	// Three bodies, so entries of one body share their chunks and evicting
	// all of a body's entries deletes its chunks.
	bodies := [][]byte{randBytes(11, 6<<10), randBytes(12, 6<<10), randBytes(13, 6<<10)}
	keys := make([]string, nKeys)
	vals := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%02x%062x", 0x10+i, i)
		vals[i] = append(randBytes(int64(100+i), 600), bodies[i%len(bodies)]...)
	}
	dir := t.TempDir()
	d := openChunked(t, dir, maxDisk)
	// Manifests of keys in shard "ff" cannot be written: the shard
	// directory's name is taken by a file. Their chunks can.
	if err := os.WriteFile(filepath.Join(dir, "m", "ff"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	blocked := func(i int) string { return fmt.Sprintf("ff%062x", i) }

	var puts, gets sync.WaitGroup
	var failed atomic.Int64 // Puts expected to fail, one error each
	for p := 0; p < putters; p++ {
		puts.Add(1)
		go func(p int) {
			defer puts.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(nKeys)
				if failing && p == 0 {
					d.Put(blocked(i), vals[i])
					failed.Add(1)
					continue
				}
				d.Put(keys[i], vals[i])
			}
		}(p)
	}
	done := make(chan struct{})
	var hits atomic.Int64
	for g := 0; g < getters; g++ {
		gets.Add(1)
		go func(g int) {
			defer gets.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(nKeys)
				got, ok := d.Get(keys[i])
				if ok {
					hits.Add(1)
				}
				if ok && !bytes.Equal(got, vals[i]) {
					t.Errorf("key %d: served bytes differ from what was put", i)
				}
			}
		}(g)
	}
	puts.Wait()
	close(done)
	gets.Wait()

	st := d.Stats()
	if st.Errors != failed.Load() {
		t.Errorf("Errors = %d, want %d (one per Put whose manifest could not be written)", st.Errors, failed.Load())
	}
	if st.Evictions == 0 || hits.Load() == 0 {
		t.Errorf("%d evictions, %d hits: the test does not race reads with eviction", st.Evictions, hits.Load())
	}
	if on := diskOccupancy(t, dir); st.Bytes != on {
		t.Errorf("Stats().Bytes = %d, on disk = %d", st.Bytes, on)
	}
	files := readTree(t, filepath.Join(dir, "c"))
	for path, b := range files {
		h := strings.TrimSuffix(filepath.Base(path), chunkSuffix)
		if ci := d.chunks[h]; ci == nil || ci.refs <= 0 || ci.size != int64(len(b)) {
			t.Errorf("chunk file %s: record %+v, file size %d", path, ci, len(b))
		}
	}
	if len(files) != len(d.chunks) {
		t.Errorf("%d chunk files, %d chunk records", len(files), len(d.chunks))
	}
	readAll := func(d *ChunkedDisk) {
		t.Helper()
		for _, k := range d.Keys() {
			i := slices.Index(keys, k)
			if got, ok := d.Get(k); i < 0 || !ok || !bytes.Equal(got, vals[i]) {
				t.Errorf("indexed entry %.8s (key %d) does not read back: ok=%v", k, i, ok)
			}
		}
	}
	readAll(d)

	d2 := openChunked(t, dir, maxDisk)
	st2 := d2.Stats()
	if st2.Entries != st.Entries || st2.Bytes != st.Bytes || st2.LogicalBytes != st.LogicalBytes || st2.Errors != 0 {
		t.Errorf("reopen found %+v, want the store left at %+v", st2, st)
	}
	if after := readTree(t, filepath.Join(dir, "c")); len(after) != len(files) {
		t.Errorf("reopen swept %d orphan chunk files", len(files)-len(after))
	}
	readAll(d2)
}

// TestChunkedFailedPutKeepsInstalledChunks: a Put whose manifest cannot be
// written gives back its pins. The chunks an installed entry references
// stay; the chunk only the failed Put wrote goes, leaving no orphan.
func TestChunkedFailedPutKeepsInstalledChunks(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	body := randBytes(21, 16<<10)
	kept := append([]byte("cell-0001:"), body...)
	d.Put("aa01", kept)
	before := readTree(t, filepath.Join(dir, "c"))
	if err := os.WriteFile(filepath.Join(dir, "m", "ff"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The same body behind a header of its own: one new first chunk.
	d.Put("ff01", append(randBytes(22, 1<<10), body...))
	if got, ok := d.Get("aa01"); !ok || !bytes.Equal(got, kept) {
		t.Fatal("the installed entry lost chunks to a failed Put")
	}
	if after := readTree(t, filepath.Join(dir, "c")); len(after) != len(before) {
		t.Errorf("%d chunk files before the failed Put, %d after", len(before), len(after))
	}
	if st := d.Stats(); st.Entries != 1 || st.Errors != 1 || st.Bytes != diskOccupancy(t, dir) {
		t.Errorf("stats = %+v, on disk = %d", st, diskOccupancy(t, dir))
	}
	if compressed, written := d.Work(); compressed != int64(len(before))+1 || written != compressed {
		t.Errorf("%d chunks compressed and %d written, want %d of each", compressed, written, len(before)+1)
	}
}
