package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// ChunkedDisk is the compressed, deduplicated persistent tier: entry
// payloads are split into content-defined chunks (see chunker.go), each
// chunk is DEFLATE-compressed and stored once under its SHA-256, and a
// per-entry manifest records how to reassemble the payload. Neighboring
// sweep cells share most of their response bytes, so their entries share
// most of their chunks — the corpus stores far more cells per GB than the
// whole-entry Disk tier. A Put hashes its chunks before anything else and
// compresses and writes only the ones the store does not hold yet.
//
// The manifests are the shared diskTier's entry files, so recency,
// eviction, atomic writes and the generation-checked drop are Disk's. The
// manifest carries the whole payload's SHA-256 and length, every chunk is
// verified against its content address after inflation, and any mismatch
// (torn manifest, missing chunk, bit rot) counts an error, drops the entry,
// and reports a miss so the caller recomputes (and the next Put repairs
// it). A crash between chunk writes and the manifest write only leaves
// orphan chunks, which Open sweeps.
//
// Chunks are refcounted: evicting an entry only deletes the chunks no
// surviving entry references, so a hot shared chunk stays as long as
// anything uses it. Stats' Bytes is real on-disk occupancy — manifests plus
// unique compressed chunks, the number the cap evicts against — while
// LogicalBytes is the uncompressed payload volume represented, so
// Bytes/LogicalBytes is the observable dedup+compression ratio.
//
// mu guards the index and the chunk records only: Put holds it to claim
// chunks and to install the manifest, never across compression or an
// fsync (see Put), and Get holds it only to look the entry up, and to drop
// it if the read finds it damaged.
type ChunkedDisk struct {
	diskTier[manifest]

	chunkRoot string // dir/c, which holds the chunk files

	// Guarded by mu.
	chunks  map[string]*chunkInfo // chunk hex hash → refcount and on-disk size
	logical int64                 // uncompressed payload bytes represented

	compressed  atomic.Int64 // chunks Put compressed
	chunkWrites atomic.Int64 // chunk files Put wrote
}

// Work returns the chunk work Puts have done so far: the chunks they
// compressed and the chunk files they wrote. A Put adds its counts once,
// as it finishes.
func (d *ChunkedDisk) Work() (compressed, written int64) {
	return d.compressed.Load(), d.chunkWrites.Load()
}

// manifest is one entry's reassembly record: everything needed to
// reassemble and verify the payload without re-reading the manifest file.
type manifest struct {
	sum     [sha256.Size]byte
	logical int64
	chunks  []chunkRef // never mutated in place; Put installs a new slice
}

// chunkRef is one chunk of an entry.
type chunkRef struct {
	sum  [sha256.Size]byte
	clen uint32 // compressed size on disk
	// info is the store-wide record this reference was counted on. A chunk
	// dropped store-wide and written again gets a new record, so comparing
	// pointers tells a live reference from a stale one.
	info *chunkInfo
}

// chunkInfo is the store-wide record for one unique chunk.
type chunkInfo struct {
	refs int   // installed entries' references plus running Puts' pins
	size int64 // compressed size on disk; 0 until the file is written
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
	d := &ChunkedDisk{chunkRoot: filepath.Join(dir, "c"), chunks: map[string]*chunkInfo{}}
	d.open(dir, "m", manifestSuffix, maxBytes, d.release)
	found, err := d.scan(d.chunkRoot, chunkSuffix)
	if err != nil {
		return nil, err
	}
	sizes := make(map[string]int64, len(found)) // chunk files: hex hash → size
	for _, f := range found {
		sizes[strings.TrimSuffix(f.name, chunkSuffix)] = f.size
	}
	// A manifest that does not parse, or references a chunk that is not on
	// disk, is dead: remove it so the entry is recomputed cleanly later.
	err = d.load(func(f diskFile) (manifest, bool) {
		path := d.path(f.name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return manifest{}, false
		}
		m, err := decodeManifest(raw)
		for i := 0; err == nil && i < len(m.chunks); i++ {
			if _, ok := sizes[hex.EncodeToString(m.chunks[i].sum[:])]; !ok {
				err = fmt.Errorf("resultstore: manifest %s references a missing chunk", f.name)
			}
		}
		if err != nil {
			d.errors.Add(1)
			_ = os.Remove(path)
			return manifest{}, false
		}
		for i := range m.chunks {
			h := hex.EncodeToString(m.chunks[i].sum[:])
			ci := d.chunks[h]
			if ci == nil {
				ci = &chunkInfo{size: sizes[h]}
				d.chunks[h] = ci
				d.bytes += ci.size
			}
			ci.refs++
			m.chunks[i].info = ci
		}
		d.logical += m.logical
		return m, true
	})
	if err != nil {
		return nil, err
	}
	// Orphan chunks (no surviving manifest references them — e.g. a crash
	// between chunk writes and the manifest write) are dead weight: sweep.
	for h := range sizes {
		if _, ok := d.chunks[h]; !ok {
			_ = os.Remove(d.chunkPath(h))
		}
	}
	return d, nil
}

// manifestName maps a content address to its manifest file name.
func manifestName(key string) string { return safeName(key) + manifestSuffix }

// chunkPath returns a chunk's path, sharded by hash prefix.
func (d *ChunkedDisk) chunkPath(hexSum string) string {
	return shardPath(d.chunkRoot, hexSum+chunkSuffix)
}

// Get returns the stored bytes for key. A missing entry is a plain miss; a
// damaged one (missing or corrupt chunk, checksum mismatch on any chunk or
// the assembled payload) is counted in Errors, dropped, and reported as a
// miss so the caller recomputes.
func (d *ChunkedDisk) Get(key string) ([]byte, bool) { return d.counted(d.Peek(key)) }

// Peek is Get without the hit/miss counters (integrity errors are still
// counted). It reassembles an entry from its chunks, verifying every step:
// each chunk inflates straight into the payload buffer, sized once from the
// manifest, into at most chunkMax bytes of it, and must match its SHA-256;
// the whole payload must match the manifest's length and SHA-256.
func (d *ChunkedDisk) Peek(key string) ([]byte, bool) {
	name := manifestName(key)
	gen, m, ok := d.lookup(name)
	if !ok {
		return nil, false
	}
	out := make([]byte, m.logical)
	off := 0
	var bad []chunkRef // chunks that are missing or rotten
	short := false     // a chunk overran the manifest's payload length
	for _, cr := range m.chunks {
		space := out[off:min(off+chunkMax, len(out))]
		n, err := d.readChunk(space, cr.sum)
		switch {
		case err == nil && sha256.Sum256(space[:n]) == cr.sum:
			off += n
		case errors.Is(err, errChunkTooLarge) && len(space) < chunkMax:
			// Only the manifest's length is known wrong here, not the chunk.
			short = true
		default:
			// Every chunk is checked, so one failed read finds all of the
			// entry's damaged chunks and the next Put rewrites them all.
			bad = append(bad, cr)
		}
	}
	if bad != nil || short || off != len(out) || sha256.Sum256(out) != m.sum {
		// The damage is real only if the entry is still the generation
		// looked up: otherwise a concurrent Put replaced it, or eviction
		// removed it and released its chunks, after the lookup, and this is
		// a plain miss. Checking and dropping under one lock leaves no
		// window in which a Put could reference a chunk about to be
		// forgotten.
		d.mu.Lock()
		if d.dropStaleLocked(name, gen, true) {
			d.forgetLocked(bad)
		}
		d.mu.Unlock()
		return nil, false
	}
	touch(d.path(name))
	return out, true
}

// readChunk inflates the chunk stored under sum into dst; see inflateChunk.
func (d *ChunkedDisk) readChunk(dst []byte, sum [sha256.Size]byte) (int, error) {
	f, err := os.Open(d.chunkPath(hex.EncodeToString(sum[:])))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return inflateChunk(dst, f)
}

// forgetLocked drops missing or rotten chunks store-wide: every entry that
// references one is unservable, and removing the chunk's record makes the
// next Put of any of them write it again. Each referencing entry degrades
// to a miss when read. A chunk is dropped only if its record is still the
// one the failed read counted on; a Put that wrote a fresh copy after an
// earlier drop made a new record, and that copy stays. A Put that pinned
// a dropped record gives up at install. Called with mu held.
func (d *ChunkedDisk) forgetLocked(bad []chunkRef) {
	for _, cr := range bad {
		h := hex.EncodeToString(cr.sum[:])
		if ci, ok := d.chunks[h]; ok && ci == cr.info {
			d.removeChunkLocked(h)
		}
	}
}

// Put stores key's bytes. Failures are tolerated (counted in Errors) — the
// tier is an accelerator, never a correctness dependency.
//
// Put splits the payload and hashes every chunk first, then does file work
// only for chunks the store does not hold yet, with d.mu held only on
// either side of that work:
//
//  1. Claim, under the lock: pin every chunk the manifest names by counting
//     its reference now, so eviction cannot delete it in the meantime, and
//     create a record for each chunk the store has never seen. A chunk
//     whose record has no size yet is not on disk yet (its record is new,
//     or another Put is still writing it).
//  2. Write, without the lock: compress each chunk that is not on disk yet,
//     once even if the payload repeats it, and write it atomically under
//     its content address; stage the manifest. A chunk already on disk is
//     neither compressed nor written: its compressed length comes from its
//     record. Two Puts that carry the same new chunk both write it; the
//     bytes are identical, so either rename leaves the same file.
//  3. Install, under the lock: unless a chunk the Put pinned was dropped
//     store-wide meanwhile (a failed read found it rotten), publish the
//     manifest, record the sizes of the chunks now on disk, and index the
//     entry, evicting past the cap. The pins taken at claim are the
//     entry's references.
//
// A Put that fails gives its pins back; a chunk is deleted only when no
// installed entry references it and no other Put pins it, so a failed Put
// never removes a chunk another Put installed or is about to. A crash
// between any two steps leaves only chunk files no manifest names, or temp
// files, both of which Open sweeps.
func (d *ChunkedDisk) Put(key string, val []byte) {
	name := manifestName(key)
	spans := splitChunks(val)
	m := manifest{sum: sha256.Sum256(val), logical: int64(len(val)), chunks: make([]chunkRef, len(spans))}
	hexes := make([]string, len(spans))
	for i, sp := range spans {
		m.chunks[i].sum = sha256.Sum256(sp)
		hexes[i] = hex.EncodeToString(m.chunks[i].sum[:])
	}

	// Claim. fresh maps each chunk not on disk yet to its first reference.
	fresh := map[*chunkInfo]int{}
	d.mu.Lock()
	for i, h := range hexes {
		ci := d.chunks[h]
		if ci == nil {
			ci = &chunkInfo{}
			d.chunks[h] = ci
		}
		ci.refs++
		m.chunks[i].info = ci
		m.chunks[i].clen = uint32(ci.size)
		if _, ok := fresh[ci]; !ok && ci.size == 0 {
			fresh[ci] = i
		}
	}
	d.mu.Unlock()

	// Write.
	var compressed, written int64
	defer func() {
		d.compressed.Add(compressed)
		d.chunkWrites.Add(written)
	}()
	var buf bytes.Buffer
	for i := range m.chunks {
		first, ok := fresh[m.chunks[i].info]
		switch {
		case !ok:
		case first < i: // repeated within this payload
			m.chunks[i].clen = m.chunks[first].clen
		default:
			comp := compressChunk(&buf, spans[i])
			compressed++
			if !d.writeFile(d.chunkPath(hexes[i]), comp) {
				d.unpin(m.chunks)
				return
			}
			written++
			m.chunks[i].clen = uint32(len(comp))
		}
	}
	raw := encodeManifest(m)
	path := d.path(name)
	tmp, ok := d.stage(path, raw)
	if !ok {
		d.unpin(m.chunks)
		return
	}

	// Install. The manifest's rename and indexing are atomic with respect
	// to dropStaleLocked and eviction, so no reader removes what this Put
	// just published.
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, h := range hexes {
		if d.chunks[h] != m.chunks[i].info {
			_ = os.Remove(tmp)
			d.unpinLocked(m.chunks)
			return
		}
	}
	if !d.publish(tmp, path) {
		d.unpinLocked(m.chunks)
		return
	}
	for _, cr := range m.chunks {
		if cr.info.size == 0 {
			cr.info.size = int64(cr.clen)
			d.bytes += cr.info.size
		}
	}
	d.logical += m.logical
	// The pins are already references, so chunks shared with the entry's
	// previous generation (all of them, on an identical re-Put) never dip
	// to zero references while installLocked releases that generation.
	d.installLocked(name, int64(len(raw)), m)
}

// unpin gives back the pins of a Put that failed; see unpinLocked.
func (d *ChunkedDisk) unpin(refs []chunkRef) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.unpinLocked(refs)
}

// release is the diskTier cleanup hook: an entry left the index (dropped,
// evicted or replaced), so its chunk references go. Called with mu held.
func (d *ChunkedDisk) release(m manifest) {
	d.logical -= m.logical
	d.unpinLocked(m.chunks)
}

// unpinLocked drops one reference per chunk and deletes the chunks nothing
// references or pins any more. A reference whose chunk was dropped
// store-wide since (see forgetLocked) was counted on a record that is
// gone, and is skipped; if no new record took its place, any copy a Put
// wrote after the drop is deleted too. Called with mu held.
func (d *ChunkedDisk) unpinLocked(refs []chunkRef) {
	for _, cr := range refs {
		h := hex.EncodeToString(cr.sum[:])
		switch ci, ok := d.chunks[h]; {
		case !ok:
			_ = os.Remove(d.chunkPath(h))
		case ci == cr.info:
			if ci.refs--; ci.refs <= 0 {
				d.removeChunkLocked(h)
			}
		}
	}
}

// removeChunkLocked deletes a chunk's record and file. Called with mu held.
func (d *ChunkedDisk) removeChunkLocked(h string) {
	d.bytes -= d.chunks[h].size
	delete(d.chunks, h)
	_ = os.Remove(d.chunkPath(h))
}

// Stats snapshots the tier's counters. Bytes is compressed, deduplicated
// on-disk occupancy (what the size cap evicts against); LogicalBytes is the
// payload volume represented.
func (d *ChunkedDisk) Stats() TierStats {
	return d.stats(func(int, int64) int64 { return d.logical })
}

// encodeManifest frames an entry's reassembly record.
func encodeManifest(m manifest) []byte {
	buf := make([]byte, 0, manifestHeaderLen+len(m.chunks)*chunkRefLen)
	buf = append(buf, chunkedMagic...)
	buf = append(buf, m.sum[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.logical))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.chunks)))
	for _, cr := range m.chunks {
		buf = append(buf, cr.sum[:]...)
		buf = binary.BigEndian.AppendUint32(buf, cr.clen)
	}
	return buf
}

// decodeManifest parses and validates manifest framing (chunk content is
// verified lazily at Get).
func decodeManifest(raw []byte) (manifest, error) {
	var m manifest
	if len(raw) < manifestHeaderLen || string(raw[:len(chunkedMagic)]) != chunkedMagic {
		return m, fmt.Errorf("resultstore: bad manifest header")
	}
	off := len(chunkedMagic)
	copy(m.sum[:], raw[off:])
	off += sha256.Size
	m.logical = int64(binary.BigEndian.Uint64(raw[off:]))
	off += 8
	n := binary.BigEndian.Uint32(raw[off:])
	off += 4
	if m.logical < 0 || len(raw) != manifestHeaderLen+int(n)*chunkRefLen {
		return m, fmt.Errorf("resultstore: manifest length %d does not match %d chunks", len(raw), n)
	}
	// A payload's chunk count is bounded by its length both ways: every
	// chunk but the last holds at least chunkMin bytes, none holds more
	// than chunkMax, and empty payloads have no chunks. Anything else is a
	// torn or forged manifest, whose length must not size the read buffer.
	if (n == 0) != (m.logical == 0) || int64(n) > m.logical/chunkMin+1 || m.logical > int64(n)*chunkMax {
		return m, fmt.Errorf("resultstore: manifest chunk count %d inconsistent with length %d", n, m.logical)
	}
	m.chunks = make([]chunkRef, n)
	for i := range m.chunks {
		copy(m.chunks[i].sum[:], raw[off:])
		off += sha256.Size
		m.chunks[i].clen = binary.BigEndian.Uint32(raw[off:])
		off += 4
	}
	return m, nil
}
