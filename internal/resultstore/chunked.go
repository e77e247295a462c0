package resultstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ChunkedDisk is the compressed, deduplicated persistent tier: entry
// payloads are split into content-defined chunks (see chunker.go), each
// chunk is DEFLATE-compressed and stored once under its SHA-256, and a
// per-entry manifest records how to reassemble the payload. Neighboring
// sweep cells share most of their response bytes, so their entries share
// most of their chunks — the corpus stores far more cells per GB than the
// whole-entry Disk tier.
//
// Integrity mirrors Disk's: the manifest carries the whole payload's
// SHA-256 and length, every chunk is verified against its content address
// after inflation, and any mismatch — torn manifest, missing chunk, bit
// rot — counts an error, drops the entry, and reports a miss so the caller
// recomputes (and the next Put repairs it). Writes are atomic
// (temp+rename); a crash between chunk writes and the manifest write only
// leaves orphan chunks, which Open sweeps.
//
// The size cap evicts whole entries LRU by manifest mtime (the persisted
// recency index, exactly like Disk). Chunks are refcounted: evicting an
// entry only deletes the chunks no surviving entry references, so a hot
// shared chunk stays as long as anything uses it. Stats' Bytes is real
// on-disk occupancy — manifests plus unique compressed chunks, the number
// the cap evicts against — while LogicalBytes is the uncompressed payload
// volume represented, so Bytes/LogicalBytes is the observable
// dedup+compression ratio.
type ChunkedDisk struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	lru     *list.List // front = most recently used; values are *chunkedEntry
	idx     map[string]*list.Element
	chunks  map[string]*chunkInfo // chunk hex hash → refcount and on-disk size
	bytes   int64                 // manifests + unique compressed chunks, on disk
	logical int64                 // uncompressed payload bytes represented

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	errors    atomic.Int64
}

// chunkedEntry is the index record for one entry: everything needed to
// reassemble and verify the payload without re-reading the manifest file.
type chunkedEntry struct {
	name         string // manifest file name, also the index key
	gen          uint64 // rewrite counter, same stale-drop protocol as Disk
	sum          [sha256.Size]byte
	logical      int64
	manifestSize int64
	chunks       []chunkRef // never mutated in place; Put installs a new slice
}

// chunkRef is one chunk of an entry.
type chunkRef struct {
	sum  [sha256.Size]byte
	clen uint32 // compressed size on disk
}

// chunkInfo is the store-wide record for one unique chunk.
type chunkInfo struct {
	refs int
	size int64
}

// Manifest framing: magic, payload SHA-256, payload length, chunk count,
// then per chunk its SHA-256 and compressed length.
const chunkedMagic = "cdcsck1\n"

const (
	manifestHeaderLen = len(chunkedMagic) + sha256.Size + 8 + 4
	chunkRefLen       = sha256.Size + 4
	manifestSuffix    = ".m"
	chunkSuffix       = ".c"
)

// OpenChunkedDisk opens (creating if needed) a chunked disk tier rooted at
// dir, capped at maxBytes of on-disk occupancy (0 or negative means
// uncapped). Manifests are parsed at Open to rebuild the chunk refcounts;
// entries whose chunks are missing, and chunks no manifest references, are
// swept. Chunk integrity is verified lazily on Get, so opening a large
// corpus costs one small read per entry, not a full decompression pass.
func OpenChunkedDisk(dir string, maxBytes int64) (*ChunkedDisk, error) {
	for _, sub := range []string{"m", "c"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: open chunked tier: %w", err)
		}
	}
	d := &ChunkedDisk{
		dir:      dir,
		maxBytes: maxBytes,
		lru:      list.New(),
		idx:      map[string]*list.Element{},
		chunks:   map[string]*chunkInfo{},
	}

	// Scan chunk files first: name → size, sweeping temp debris.
	chunkSizes := map[string]int64{}
	err := filepath.WalkDir(filepath.Join(dir, "c"), func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		name := de.Name()
		if !strings.HasSuffix(name, chunkSuffix) {
			_ = os.Remove(path) // interrupted atomic write
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil // raced with concurrent removal; skip
		}
		chunkSizes[strings.TrimSuffix(name, chunkSuffix)] = info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: scanning %s: %w", dir, err)
	}

	// Parse manifests; a manifest that does not parse, or references a
	// chunk that is not on disk, is dead — remove it so the entry is
	// recomputed cleanly later.
	type scanned struct {
		entry *chunkedEntry
		mtime time.Time
	}
	var found []scanned
	err = filepath.WalkDir(filepath.Join(dir, "m"), func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		name := de.Name()
		if !strings.HasSuffix(name, manifestSuffix) {
			_ = os.Remove(path)
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		e, derr := decodeManifest(raw)
		if derr != nil {
			d.errors.Add(1)
			_ = os.Remove(path)
			return nil
		}
		for _, cr := range e.chunks {
			if _, ok := chunkSizes[hex.EncodeToString(cr.sum[:])]; !ok {
				d.errors.Add(1)
				_ = os.Remove(path)
				return nil
			}
		}
		e.name = name
		e.manifestSize = info.Size()
		found = append(found, scanned{entry: e, mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: scanning %s: %w", dir, err)
	}

	// Oldest first, name as tiebreaker, so the newest ends at the front.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].entry.name < found[j].entry.name
	})
	for _, f := range found {
		e := f.entry
		d.idx[e.name] = d.lru.PushFront(e)
		d.bytes += e.manifestSize
		d.logical += e.logical
		for _, cr := range e.chunks {
			h := hex.EncodeToString(cr.sum[:])
			if ci, ok := d.chunks[h]; ok {
				ci.refs++
				continue
			}
			size := chunkSizes[h]
			d.chunks[h] = &chunkInfo{refs: 1, size: size}
			d.bytes += size
		}
	}
	// Orphan chunks (no surviving manifest references them — e.g. a crash
	// between chunk writes and the manifest write) are dead weight: sweep.
	for h := range chunkSizes {
		if _, ok := d.chunks[h]; !ok {
			_ = os.Remove(d.chunkPath(h))
		}
	}
	d.mu.Lock()
	d.evictOverCapLocked()
	d.mu.Unlock()
	return d, nil
}

// Name implements Tier. The chunked store is the disk tier — same role,
// same metrics label — just a denser encoding.
func (d *ChunkedDisk) Name() string { return "disk" }

// manifestName maps a content address to its manifest file name.
func manifestName(key string) string { return safeName(key) + manifestSuffix }

// manifestPath returns a manifest's path, sharded like Disk entries.
func (d *ChunkedDisk) manifestPath(name string) string {
	shard := "xx"
	if len(name) >= 2 {
		shard = name[:2]
	}
	return filepath.Join(d.dir, "m", shard, name)
}

// chunkPath returns a chunk's path, sharded by hash prefix.
func (d *ChunkedDisk) chunkPath(hexSum string) string {
	shard := "xx"
	if len(hexSum) >= 2 {
		shard = hexSum[:2]
	}
	return filepath.Join(d.dir, "c", shard, hexSum+chunkSuffix)
}

// Get returns the stored bytes for key. A missing entry is a plain miss; a
// damaged one (unreadable manifest state, missing/corrupt chunk, checksum
// mismatch on any chunk or the assembled payload) is counted in Errors,
// dropped, and reported as a miss so the caller recomputes.
func (d *ChunkedDisk) Get(key string) ([]byte, bool) {
	val, ok := d.get(key)
	if ok {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return val, ok
}

// Peek is Get without the hit/miss counters (integrity errors are still
// counted).
func (d *ChunkedDisk) Peek(key string) ([]byte, bool) {
	return d.get(key)
}

// get reassembles an entry from its chunks, verifying every step.
func (d *ChunkedDisk) get(key string) ([]byte, bool) {
	name := manifestName(key)
	d.mu.Lock()
	el, ok := d.idx[name]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*chunkedEntry)
	gen := e.gen
	refs := e.chunks // immutable snapshot: Put installs a fresh slice
	wantSum, wantLen := e.sum, e.logical
	d.lru.MoveToFront(el)
	d.mu.Unlock()

	out := make([]byte, 0, wantLen)
	for _, cr := range refs {
		h := hex.EncodeToString(cr.sum[:])
		comp, err := os.ReadFile(d.chunkPath(h))
		if err != nil {
			// Missing or unreadable chunk: drop the entry but leave the
			// chunk slot alone — other entries may reference a fresh copy a
			// concurrent Put just wrote.
			d.errors.Add(1)
			d.dropStale(name, gen, "")
			return nil, false
		}
		chunk, err := decompressChunk(comp)
		if err == nil && sha256.Sum256(chunk) != cr.sum {
			err = fmt.Errorf("resultstore: chunk %s content mismatch", h)
		}
		if err != nil {
			// The chunk file itself is rotten: every entry referencing it is
			// unservable, so remove the file too — each referencing entry
			// degrades to a miss and the next Put of any of them rewrites
			// the chunk.
			d.errors.Add(1)
			d.dropStale(name, gen, h)
			return nil, false
		}
		out = append(out, chunk...)
	}
	if int64(len(out)) != wantLen || sha256.Sum256(out) != wantSum {
		d.errors.Add(1)
		d.dropStale(name, gen, "")
		return nil, false
	}
	// Persist recency so LRU order survives restarts (manifest mtime is the
	// on-disk access index, exactly like Disk's entry files).
	now := time.Now()
	_ = os.Chtimes(d.manifestPath(name), now, now)
	return out, true
}

// Put stores key's bytes: chunk, compress, write the chunks this store does
// not already hold, then the manifest, evicting LRU entries past the cap.
// Failures are tolerated (counted in Errors) — the tier is an accelerator,
// never a correctness dependency.
func (d *ChunkedDisk) Put(key string, val []byte) {
	name := manifestName(key)
	spans := splitChunks(val)
	refs := make([]chunkRef, len(spans))
	comps := make([][]byte, len(spans))
	for i, sp := range spans {
		comps[i] = compressChunk(sp)
		refs[i] = chunkRef{sum: sha256.Sum256(sp), clen: uint32(len(comps[i]))}
	}
	sum := sha256.Sum256(val)
	manifest := encodeManifest(sum, int64(len(val)), refs)

	// Index update and file visibility are atomic with respect to dropStale
	// and eviction, so readers can never remove what this Put just wrote:
	// same protocol as Disk, with chunk writes inside the critical section
	// because the refcount map must agree with the files on disk.
	d.mu.Lock()
	defer d.mu.Unlock()
	written := map[string]int64{} // chunks written by this Put: hex → size
	for i, cr := range refs {
		h := hex.EncodeToString(cr.sum[:])
		if _, ok := d.chunks[h]; ok {
			continue // dedup: already on disk (or just written above)
		}
		if _, ok := written[h]; ok {
			continue // repeated chunk within this payload
		}
		if !d.writeFileLocked(d.chunkPath(h), comps[i]) {
			d.unwindLocked(written)
			return
		}
		written[h] = int64(len(comps[i]))
	}
	if !d.writeFileLocked(d.manifestPath(name), manifest) {
		d.unwindLocked(written)
		return
	}

	for h, size := range written {
		d.chunks[h] = &chunkInfo{refs: 0, size: size}
		d.bytes += size
	}
	entry := &chunkedEntry{
		name:         name,
		sum:          sum,
		logical:      int64(len(val)),
		manifestSize: int64(len(manifest)),
		chunks:       refs,
	}
	// Reference the new generation's chunks before dereferencing the old
	// one's: chunks shared across generations (most of them, when an entry
	// is re-rendered — all of them, on an identical re-Put) must not dip to
	// zero references in between, or deref would delete their files out
	// from under the new entry.
	for _, cr := range refs {
		if ci, ok := d.chunks[hex.EncodeToString(cr.sum[:])]; ok {
			ci.refs++
		}
	}
	if el, ok := d.idx[name]; ok {
		old := el.Value.(*chunkedEntry)
		entry.gen = old.gen + 1
		d.bytes -= old.manifestSize
		d.logical -= old.logical
		d.derefChunksLocked(old.chunks, "")
		el.Value = entry
		d.lru.MoveToFront(el)
	} else {
		d.idx[name] = d.lru.PushFront(entry)
	}
	d.bytes += entry.manifestSize
	d.logical += entry.logical
	d.evictOverCapLocked()
}

// writeFileLocked atomically writes path (temp in the same directory +
// rename), counting failures. Called with d.mu held.
func (d *ChunkedDisk) writeFileLocked(path string, data []byte) bool {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		d.errors.Add(1)
		return false
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		d.errors.Add(1)
		return false
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		d.errors.Add(1)
		return false
	}
	return true
}

// unwindLocked removes chunks a failed Put wrote before its manifest became
// visible; nothing references them yet.
func (d *ChunkedDisk) unwindLocked(written map[string]int64) {
	for h := range written {
		_ = os.Remove(d.chunkPath(h))
	}
}

// derefChunksLocked drops one reference per chunk, deleting chunk files
// that reach zero references. corrupt (hex hash or "") names a chunk whose
// file must be removed even if other entries still reference it — the file
// itself is rotten. Called with d.mu held.
func (d *ChunkedDisk) derefChunksLocked(refs []chunkRef, corrupt string) {
	for _, cr := range refs {
		h := hex.EncodeToString(cr.sum[:])
		ci, ok := d.chunks[h]
		if !ok {
			continue // already removed as corrupt via another entry
		}
		ci.refs--
		if ci.refs <= 0 || h == corrupt {
			delete(d.chunks, h)
			d.bytes -= ci.size
			_ = os.Remove(d.chunkPath(h))
		}
	}
	if corrupt != "" {
		// The corrupt chunk may be shared with entries not being dropped;
		// make sure its file and accounting are gone regardless (surviving
		// referencing entries will miss lazily and be dropped or repaired).
		if ci, ok := d.chunks[corrupt]; ok {
			delete(d.chunks, corrupt)
			d.bytes -= ci.size
			_ = os.Remove(d.chunkPath(corrupt))
		}
	}
}

// dropStale removes an entry after a failed read, but only if its
// generation still matches what the reader observed — a concurrent Put that
// re-rendered the entry bumps gen, telling the reader its observation is
// stale and the fresh state must stay. corrupt optionally names a rotten
// chunk file to remove store-wide.
func (d *ChunkedDisk) dropStale(name string, gen uint64, corrupt string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.idx[name]
	if !ok || el.Value.(*chunkedEntry).gen != gen {
		return
	}
	d.removeEntryLocked(el, corrupt)
}

// removeEntryLocked unlinks an entry: index, manifest file, chunk refs.
// Called with d.mu held.
func (d *ChunkedDisk) removeEntryLocked(el *list.Element, corrupt string) {
	e := el.Value.(*chunkedEntry)
	d.lru.Remove(el)
	delete(d.idx, e.name)
	d.bytes -= e.manifestSize
	d.logical -= e.logical
	_ = os.Remove(d.manifestPath(e.name))
	d.derefChunksLocked(e.chunks, corrupt)
}

// evictOverCapLocked removes least-recently-used entries until on-disk
// occupancy is within the byte cap. The newest entry always stays, so a
// single oversized entry cannot evict itself into a livelock. Called with
// d.mu held.
func (d *ChunkedDisk) evictOverCapLocked() {
	if d.maxBytes <= 0 {
		return
	}
	for d.bytes > d.maxBytes && d.lru.Len() > 1 {
		d.removeEntryLocked(d.lru.Back(), "")
		d.evictions.Add(1)
	}
}

// Keys returns the fetchable addresses of the indexed entries, for manifest
// export (see Disk.Keys — manifest names double as addresses the same way).
func (d *ChunkedDisk) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.idx))
	for name := range d.idx {
		out = append(out, strings.TrimSuffix(name, manifestSuffix))
	}
	return out
}

// Stats snapshots the tier's counters. Bytes is compressed, deduplicated
// on-disk occupancy (what the size cap evicts against); LogicalBytes is the
// payload volume represented.
func (d *ChunkedDisk) Stats() TierStats {
	d.mu.Lock()
	entries, bytes, logical := d.lru.Len(), d.bytes, d.logical
	d.mu.Unlock()
	return TierStats{
		Name:         "disk",
		Hits:         d.hits.Load(),
		Misses:       d.misses.Load(),
		Evictions:    d.evictions.Load(),
		Entries:      entries,
		Bytes:        bytes,
		LogicalBytes: logical,
		Errors:       d.errors.Load(),
	}
}

// encodeManifest frames an entry's reassembly record.
func encodeManifest(sum [sha256.Size]byte, logical int64, refs []chunkRef) []byte {
	buf := make([]byte, 0, manifestHeaderLen+len(refs)*chunkRefLen)
	buf = append(buf, chunkedMagic...)
	buf = append(buf, sum[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(logical))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(refs)))
	for _, cr := range refs {
		buf = append(buf, cr.sum[:]...)
		buf = binary.BigEndian.AppendUint32(buf, cr.clen)
	}
	return buf
}

// decodeManifest parses and validates manifest framing (chunk content is
// verified lazily at Get).
func decodeManifest(raw []byte) (*chunkedEntry, error) {
	if len(raw) < manifestHeaderLen || string(raw[:len(chunkedMagic)]) != chunkedMagic {
		return nil, fmt.Errorf("resultstore: bad manifest header")
	}
	e := &chunkedEntry{}
	off := len(chunkedMagic)
	copy(e.sum[:], raw[off:])
	off += sha256.Size
	e.logical = int64(binary.BigEndian.Uint64(raw[off:]))
	off += 8
	n := binary.BigEndian.Uint32(raw[off:])
	off += 4
	if e.logical < 0 || len(raw) != manifestHeaderLen+int(n)*chunkRefLen {
		return nil, fmt.Errorf("resultstore: manifest length %d does not match %d chunks", len(raw), n)
	}
	// A payload's chunk count is bounded by its length (and empty payloads
	// have no chunks); anything else is a torn or forged manifest.
	if (n == 0) != (e.logical == 0) || int64(n) > e.logical/chunkMin+1 {
		return nil, fmt.Errorf("resultstore: manifest chunk count %d inconsistent with length %d", n, e.logical)
	}
	e.chunks = make([]chunkRef, n)
	for i := range e.chunks {
		copy(e.chunks[i].sum[:], raw[off:])
		off += sha256.Size
		e.chunks[i].clen = binary.BigEndian.Uint32(raw[off:])
		off += 4
	}
	return e, nil
}
