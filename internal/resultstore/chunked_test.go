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

	// Flip one byte in every stored chunk: all entries become unservable.
	if damaged := corruptChunks(t, dir); damaged == 0 {
		t.Fatal("no chunk found to damage")
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
// manifest is intact but the file holding its chunks vanished underneath
// it. "k" holds none of its chunks itself: "holder", stored first with the
// same bytes, does.
func TestChunkedMissingChunkIsMiss(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	val := randBytes(5, 30<<10)
	d.Put("holder", val)
	d.Put("k", val)
	if compressed, _, _ := d.Work(); compressed != int64(len(splitChunks(val))) {
		t.Fatalf("%d chunks compressed: the second Put did not reference the first's", compressed)
	}

	if err := os.Remove(d.path(manifestName("holder"))); err != nil {
		t.Fatal(err)
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
	// stay as long as any survivor references them, in the oldest entry's
	// file, which becomes a pack when that entry goes — so a near-full cap
	// is satisfiable by dropping the oldest entries.
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

// corruptChunks flips one byte in the middle of every chunk a file under
// dir holds, in entry files, packs and first-format chunk files alike, and
// returns how many it damaged.
func corruptChunks(t *testing.T, dir string) int {
	t.Helper()
	damaged := 0
	for rel, raw := range readTree(t, dir) {
		var spans [][2]int // each held chunk's offset and length
		if strings.HasSuffix(rel, chunkSuffix) {
			spans = append(spans, [2]int{0, len(raw)})
		} else {
			fr, body, err := decodeManifest(raw)
			if err != nil {
				t.Fatalf("%s: %v", rel, err)
			}
			off := len(raw) - len(body)
			for _, c := range fr.chunks {
				if !fr.legacy && c.clen > 0 {
					spans = append(spans, [2]int{off, int(c.clen)})
					off += int(c.clen)
				}
			}
		}
		for _, sp := range spans {
			raw[sp[0]+sp[1]/2] ^= 0x40
			damaged++
		}
		if err := os.WriteFile(filepath.Join(dir, rel), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return damaged
}

// checkChunkRecords checks the chunk index against the files: every record
// is referenced and points at a file that holds its chunk at its offset,
// every file's live count is the number of records pointing into it, and
// every pack or chunk file under dir/c holds a live chunk.
func checkChunkRecords(t *testing.T, d *ChunkedDisk) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	live := map[*hostFile]int{}
	packs := map[string]bool{} // names of the packs and chunk files records point into
	for sum, ci := range d.chunks {
		if ci.sum != sum || ci.refs <= 0 || ci.file == nil || ci.file.name == "" {
			t.Errorf("chunk %x: record %+v", sum[:4], ci)
			continue
		}
		live[ci.file]++
		if !ci.file.entry {
			packs[ci.file.name] = true
		}
		raw, err := os.ReadFile(d.hostPath(ci.file.name, ci.file.entry))
		if err != nil || int64(len(raw)) < ci.off+int64(ci.clen) {
			t.Errorf("chunk %x: %s holds %d bytes, want %d at %d (%v)", sum[:4], ci.file.name, len(raw), ci.clen, ci.off, err)
			continue
		}
		out := make([]byte, chunkMax)
		n, err := inflateChunk(out, bytes.NewReader(raw[ci.off:ci.off+int64(ci.clen)]))
		if err != nil || sha256.Sum256(out[:n]) != sum {
			t.Errorf("chunk %x: %s does not hold it at %d (%v)", sum[:4], ci.file.name, ci.off, err)
		}
	}
	for h, n := range live {
		if h.live != n {
			t.Errorf("%s: live count %d, %d records point into it", h.name, h.live, n)
		}
	}
	for rel := range readTree(t, d.chunkRoot) {
		if !packs[filepath.Base(rel)] {
			t.Errorf("%s holds no live chunk", rel)
		}
	}
}

// TestChunkedMissingSharedChunkIsRewritten: chunks whose file vanishes
// while other entries still reference them must be dropped store-wide, so
// the next Put of an entry that uses them writes them again. Keeping them
// in the refcount map would make Put skip the write, and the rewritten
// entry would miss on every Get. The entry that still references the old
// chunk records must not release the rewritten ones when it is dropped in
// turn. k0's file holds the body chunks both entries share.
func TestChunkedMissingSharedChunkIsRewritten(t *testing.T) {
	d := openChunked(t, t.TempDir(), 0)
	vals := corpus(2, 30<<10)
	for i, v := range vals {
		d.Put(fmt.Sprintf("k%d", i), v)
	}
	if err := os.Remove(d.path(manifestName("k0"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k0"); ok {
		t.Fatal("k0 served with its chunk files gone")
	}
	d.Put("k0", vals[0])
	if got, ok := d.Get("k0"); !ok || !bytes.Equal(got, vals[0]) {
		t.Fatalf("rewritten k0: ok=%v, errors=%d", ok, d.Stats().Errors)
	}
	// k1's body chunks are still missing: it misses and is dropped, which
	// must leave the chunks k0 shares with it in place.
	if _, ok := d.Get("k1"); ok {
		t.Fatal("k1 served with its body chunks gone")
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
// files, every chunk record must point at a file that holds its chunk, no
// pack may be left holding nothing, every indexed entry must read back
// verified, and a reopen must find the same store and sweep nothing.
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
	checkChunkRecords(t, d)
	files := readTree(t, dir)
	delete(files, filepath.Join("m", "ff")) // the file blocking shard ff, debris to Open
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
	if after := readTree(t, dir); len(after) != len(files) {
		t.Errorf("reopen swept %d files", len(files)-len(after))
	}
	checkChunkRecords(t, d2)
	readAll(d2)
}

// TestChunkedFailedPutKeepsInstalledChunks: a Put whose entry file cannot
// be written gives back its pins. The chunks an installed entry references
// stay; the record of the chunk only the failed Put carried goes, and no
// file is left behind.
func TestChunkedFailedPutKeepsInstalledChunks(t *testing.T) {
	dir := t.TempDir()
	d := openChunked(t, dir, 0)
	body := randBytes(21, 16<<10)
	kept := append([]byte("cell-0001:"), body...)
	d.Put("aa01", kept)
	before, files := len(d.chunks), readTree(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "m", "ff"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The same body behind a header of its own: one new first chunk.
	d.Put("ff01", append(randBytes(22, 1<<10), body...))
	if got, ok := d.Get("aa01"); !ok || !bytes.Equal(got, kept) {
		t.Fatal("the installed entry lost chunks to a failed Put")
	}
	if len(d.chunks) != before {
		t.Errorf("%d chunk records before the failed Put, %d after", before, len(d.chunks))
	}
	if after := readTree(t, dir); len(after) != len(files)+1 { // + the blocking file m/ff
		t.Errorf("%d files before the failed Put, %d after", len(files), len(after))
	}
	if st := d.Stats(); st.Entries != 1 || st.Errors != 1 || st.Bytes != diskOccupancy(t, dir) {
		t.Errorf("stats = %+v, on disk = %d", st, diskOccupancy(t, dir))
	}
	compressed, written, created := d.Work()
	if compressed != int64(before)+1 || written != int64(before) || created != 1 {
		t.Errorf("%d chunks compressed, %d stored, %d files created; want %d, %d and 1", compressed, written, created, before+1, before)
	}
}

// TestChunkedConcurrentReplace re-Puts every key with one of two values
// that share a body, next to Gets, in a small-capped store: each Put
// replaces the key's older entry, whose file becomes a pack whenever
// another entry references its chunks, and a new file takes its name.
// A read that raced such a rename is a plain miss, never damage: the run
// must count no error. Every Get returns one of the two values or misses,
// and the accounting must match the files, before and after a reopen.
func TestChunkedConcurrentReplace(t *testing.T) {
	const nKeys, rounds = 6, 150
	body := randBytes(31, 12<<10)
	keys := make([]string, nKeys)
	vals := make([][2][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%02x%062x", 0x20+i, i)
		for j := range vals[i] {
			vals[i][j] = append(randBytes(int64(200+2*i+j), 700), body...)
		}
	}
	dir := t.TempDir()
	d := openChunked(t, dir, 40<<10)
	isVal := func(i int, got []byte) bool { return bytes.Equal(got, vals[i][0]) || bytes.Equal(got, vals[i][1]) }
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(nKeys)
				if got, ok := d.Get(keys[i]); ok && !isVal(i, got) {
					t.Errorf("key %d: served bytes are neither value put", i)
				}
			}
		}(g)
	}
	var puts sync.WaitGroup
	for p := 0; p < 2; p++ {
		puts.Add(1)
		go func(p int) {
			defer puts.Done()
			rng := rand.New(rand.NewSource(int64(400 + p)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(nKeys)
				d.Put(keys[i], vals[i][rng.Intn(2)])
			}
		}(p)
	}
	puts.Wait()
	close(done)
	wg.Wait()
	st := d.Stats()
	if st.Errors != 0 || st.Bytes != diskOccupancy(t, dir) {
		t.Errorf("stats %+v, on disk %d", st, diskOccupancy(t, dir))
	}
	checkChunkRecords(t, d)
	d2 := openChunked(t, dir, 40<<10)
	if st2 := d2.Stats(); st2.Entries != st.Entries || st2.Bytes != st.Bytes || st2.LogicalBytes != st.LogicalBytes || st2.Errors != 0 {
		t.Errorf("reopen found %+v, want the store left at %+v", st2, st)
	}
	checkChunkRecords(t, d2)
	for _, k := range d2.Keys() {
		i := slices.Index(keys, k)
		if got, ok := d2.Get(k); i < 0 || !ok || !isVal(i, got) {
			t.Errorf("indexed entry %.8s does not read back: ok=%v", k, ok)
		}
	}
}
