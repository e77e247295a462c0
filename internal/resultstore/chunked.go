package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ChunkedDisk is the compressed, deduplicated persistent tier: entry
// payloads are split into content-defined chunks (see chunker.go), each
// chunk is DEFLATE-compressed and stored once under its SHA-256, and a
// per-entry manifest records how to reassemble the payload. Neighboring
// sweep cells share most of their response bytes, so their entries share
// most of their chunks — the corpus stores far more cells per GB than the
// whole-entry Disk tier.
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
type ChunkedDisk struct {
	diskTier[manifest]

	chunkRoot string // dir/c, which holds the chunk files

	// Guarded by mu.
	chunks  map[string]*chunkInfo // chunk hex hash → refcount and on-disk size
	logical int64                 // uncompressed payload bytes represented
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
// counted). It reassembles an entry from its chunks, verifying every step.
func (d *ChunkedDisk) Peek(key string) ([]byte, bool) {
	name := manifestName(key)
	gen, m, ok := d.lookup(name)
	if !ok {
		return nil, false
	}
	out := make([]byte, 0, m.logical)
	var bad []chunkRef
	for _, cr := range m.chunks {
		comp, err := os.ReadFile(d.chunkPath(hex.EncodeToString(cr.sum[:])))
		var chunk []byte
		if err == nil {
			chunk, err = decompressChunk(comp)
		}
		if err != nil || sha256.Sum256(chunk) != cr.sum {
			// Every chunk is checked, so one failed read finds all of the
			// entry's damaged chunks and the next Put rewrites them all.
			bad = append(bad, cr)
			continue
		}
		out = append(out, chunk...)
	}
	if bad != nil || int64(len(out)) != m.logical || sha256.Sum256(out) != m.sum {
		// Forget the chunks first: a Put of this key that runs between the
		// two steps then finds them gone and writes them again.
		d.errors.Add(1)
		d.forget(bad)
		d.dropStale(name, gen, true)
		return nil, false
	}
	touch(d.path(name))
	return out, true
}

// forget drops missing or rotten chunks store-wide: every entry that
// references one is unservable, and removing the chunk's record makes the
// next Put of any of them write it again. Each referencing entry degrades
// to a miss when read. A chunk is dropped only if its record is still the
// one the failed read counted on; a concurrent Put that wrote a fresh copy
// made a new record, and that copy stays.
func (d *ChunkedDisk) forget(bad []chunkRef) {
	if len(bad) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, cr := range bad {
		h := hex.EncodeToString(cr.sum[:])
		if ci, ok := d.chunks[h]; ok && ci == cr.info {
			d.removeChunkLocked(h)
		}
	}
}

// Put stores key's bytes: chunk, compress, write the chunks this store does
// not already hold, then the manifest, evicting LRU entries past the cap.
// Failures are tolerated (counted in Errors) — the tier is an accelerator,
// never a correctness dependency.
func (d *ChunkedDisk) Put(key string, val []byte) {
	name := manifestName(key)
	spans := splitChunks(val)
	m := manifest{sum: sha256.Sum256(val), logical: int64(len(val)), chunks: make([]chunkRef, len(spans))}
	hexes := make([]string, len(spans))
	comps := make([][]byte, len(spans))
	for i, sp := range spans {
		comps[i] = compressChunk(sp)
		m.chunks[i] = chunkRef{sum: sha256.Sum256(sp), clen: uint32(len(comps[i]))}
		hexes[i] = hex.EncodeToString(m.chunks[i].sum[:])
	}
	raw := encodeManifest(m)

	// Chunk writes happen inside the critical section because the refcount
	// map must agree with the files on disk; the manifest's rename and
	// install are atomic with respect to dropStale and eviction, so readers
	// can never remove what this Put just wrote.
	d.mu.Lock()
	defer d.mu.Unlock()
	written := map[string]*chunkInfo{} // chunks written by this Put
	for i, h := range hexes {
		if d.chunks[h] != nil || written[h] != nil {
			continue // dedup: already on disk, or repeated within this payload
		}
		if !d.writeFile(d.chunkPath(h), comps[i]) {
			d.unwindLocked(written)
			return
		}
		written[h] = &chunkInfo{size: int64(len(comps[i]))}
	}
	if !d.writeFile(d.path(name), raw) {
		d.unwindLocked(written)
		return
	}
	for h, ci := range written {
		d.chunks[h] = ci
		d.bytes += ci.size
	}
	// Reference the new generation's chunks before installLocked releases
	// the old one's: chunks shared across generations (most of them, when
	// an entry is re-rendered — all of them, on an identical re-Put) must
	// not dip to zero references in between, or release would delete their
	// files out from under the new entry.
	for i, h := range hexes {
		ci := d.chunks[h]
		ci.refs++
		m.chunks[i].info = ci
	}
	d.logical += m.logical
	d.installLocked(name, int64(len(raw)), m)
}

// unwindLocked removes chunks a failed Put wrote before its manifest became
// visible; nothing references them yet.
func (d *ChunkedDisk) unwindLocked(written map[string]*chunkInfo) {
	for h := range written {
		_ = os.Remove(d.chunkPath(h))
	}
}

// release is the diskTier cleanup hook: an entry left the index (dropped,
// evicted or replaced), so drop one reference per chunk and delete the
// chunks nothing references any more. A reference whose chunk was dropped
// store-wide since (see forget) was counted on a record that is gone, and
// is skipped. Called with mu held.
func (d *ChunkedDisk) release(m manifest) {
	d.logical -= m.logical
	for _, cr := range m.chunks {
		h := hex.EncodeToString(cr.sum[:])
		if ci, ok := d.chunks[h]; ok && ci == cr.info {
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
