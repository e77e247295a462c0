package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// ChunkedDisk is the compressed, deduplicated persistent tier: entry
// payloads are split into content-defined chunks (see chunker.go), each
// chunk is DEFLATE-compressed and stored once under its SHA-256, and a
// per-entry manifest records how to reassemble the payload. Neighboring
// sweep cells share most of their response bytes, so their entries share
// most of their chunks — the corpus stores far more cells per GB than the
// whole-entry Disk tier.
//
// Each entry is one file: its manifest, followed by the compressed chunks
// the store did not hold when the entry was written. A chunk the store
// already holds is referenced where it lies, in an earlier entry's file,
// and never written again. Every chunk record in memory points at the file
// that holds the chunk and its offset there, so a read opens the entry's
// own file once, plus each other file that holds one of its chunks.
//
// The entry files are the shared diskTier's, so recency, eviction, atomic
// writes and the generation-checked drop are Disk's. The manifest carries
// the whole payload's SHA-256 and length, every chunk is verified against
// its content address after inflation, and any mismatch (torn file, missing
// file, bit rot) counts an error, drops the entry, and reports a miss so
// the caller recomputes (and the next Put repairs it).
//
// Chunks are refcounted. An entry that leaves (evicted, dropped or
// replaced) deletes its file only if no live entry references a chunk the
// file holds; otherwise the file is renamed into dir/c as a pack, which
// serves those chunks until the last reference to them goes, and is
// deleted then. Until then the pack's other bytes (its manifest and the
// chunks nothing references) are stranded, and they stay in Stats' Bytes.
//
// The first format's files still serve as they lie: a chunk file
// c/<hh>/<hash>.c holds one chunk at offset 0, and a first-format manifest
// is an entry whose chunks are all held elsewhere. Stats' Bytes is real
// on-disk occupancy — entry files, packs and chunk files, the number the
// cap evicts against — while LogicalBytes is the uncompressed payload
// volume represented, so Bytes/LogicalBytes is the observable
// dedup+compression ratio.
//
// mu guards the index and the chunk and file records: Put holds it to claim
// chunks and to install its file, never across compression or an fsync
// (see Put), and Peek holds it only to look the entry up, and to drop it if
// the read finds it damaged.
type ChunkedDisk struct {
	diskTier[manifest]

	chunkRoot string // dir/c, which holds packs and first-format chunk files

	// Guarded by mu.
	chunks  map[[sha256.Size]byte]*chunkInfo // content address → record
	logical int64                            // uncompressed payload bytes represented
	seq     uint64                           // the last write number handed out
	packs   int                              // the last pack number handed out

	compressed  atomic.Int64 // chunks Put compressed
	chunkWrites atomic.Int64 // chunks Put stored in the files it wrote
	files       atomic.Int64 // files Put created
}

// Work returns the work Puts have done so far: the chunks they compressed,
// the chunks they stored, and the files they created to store them. A Put
// adds its counts as it goes.
func (d *ChunkedDisk) Work() (compressed, written, files int64) {
	return d.compressed.Load(), d.chunkWrites.Load(), d.files.Load()
}

// manifest is one entry's reassembly record: everything needed to
// reassemble and verify the payload without re-reading the manifest.
type manifest struct {
	sum     [sha256.Size]byte
	logical int64
	file    *hostFile    // the entry's own file
	chunks  []*chunkInfo // never mutated in place; Put installs a new slice
}

// chunkInfo is the store-wide record for one unique chunk. A chunk dropped
// store-wide and stored again gets a new record, so comparing an entry's
// record pointer with the index tells a live reference from a stale one.
type chunkInfo struct {
	sum  [sha256.Size]byte
	refs int       // installed entries' references plus running Puts' pins
	file *hostFile // the file holding the chunk; nil until a Put installs it
	off  int64     // where the compressed chunk starts in file
	clen uint32    // compressed length
}

// hostFile is the record of one file that holds chunks: an entry file, a
// pack (an entry file whose entry left), or a first-format chunk file.
type hostFile struct {
	name  string // file name, under dir/m while entry, else under dir/c; "" once deleted
	size  int64
	live  int  // indexed chunk records that point into the file
	entry bool // the file is still its entry's, counted in the entry's index record
}

// Entry-file framing: magic, payload SHA-256, payload length, chunk count,
// the file's write number, then per chunk its SHA-256 and compressed
// length. In this format a nonzero compressed length means the file holds
// the chunk: those chunks follow the table, in table order, and a zero
// length means another file holds it. A first-format file (chunkedMagicV1)
// has no write number and is the table alone, and every chunk it names
// lies in a chunk file of its own. An older build rejects this format's
// magic, so it never reads this format's files as its own.
//
// Write numbers grow with every Put, across restarts. A chunk is written
// again only after every record of it is gone, while a file that held it
// may stay for other chunks, so when several files hold a chunk, the one
// with the highest write number holds the copy the store last indexed.
const (
	chunkedMagic   = "cdcsck2\n"
	chunkedMagicV1 = "cdcsck1\n"
)

const (
	manifestHeaderLen = len(chunkedMagic) + sha256.Size + 8 + 4 // the first format's
	chunkRefLen       = sha256.Size + 4
	manifestSuffix    = ".m"
	chunkSuffix       = ".c"
	packSuffix        = ".p"
)

// entryFrame is an entry file's table as framed on disk.
type entryFrame struct {
	legacy  bool // first format: chunkedMagicV1, every chunk held elsewhere
	sum     [sha256.Size]byte
	logical int64
	seq     uint64 // write number; 0 in the first format
	chunks  []frameChunk
}

// tableLen is the length of the header and table, where the chunks the
// file holds start.
func (f entryFrame) tableLen() int {
	n := manifestHeaderLen + len(f.chunks)*chunkRefLen
	if !f.legacy {
		n += 8
	}
	return n
}

// frameChunk is one chunk of an entry file's table.
type frameChunk struct {
	sum  [sha256.Size]byte
	clen uint32
}

// OpenChunkedDisk opens (creating if needed) a chunked disk tier rooted at
// dir, capped at maxBytes of on-disk occupancy (0 or negative means
// uncapped). Every file's table is read at Open to find where each chunk
// lies and to rebuild the refcounts: entries whose chunks lie nowhere, and
// files that hold no chunk a surviving entry references, are swept. Chunk
// integrity is verified lazily on Get, so opening a large corpus costs one
// small read per file, not a full decompression pass.
func OpenChunkedDisk(dir string, maxBytes int64) (*ChunkedDisk, error) {
	d := &ChunkedDisk{chunkRoot: filepath.Join(dir, "c"), chunks: map[[sha256.Size]byte]*chunkInfo{}}
	d.open(dir, "m", manifestSuffix, maxBytes, d.release)
	found, err := d.scan(d.root, manifestSuffix)
	if err != nil {
		return nil, err
	}
	stored, err := d.scan(d.chunkRoot, chunkSuffix, packSuffix)
	if err != nil {
		return nil, err
	}

	// copies keeps, per content address, the copy with the highest write
	// number (see chunkedMagic); a chunk file's is 0.
	type copyAt struct {
		chunkInfo
		seq uint64
	}
	copies := map[[sha256.Size]byte]copyAt{}
	offer := func(ci chunkInfo, seq uint64) {
		if cur, ok := copies[ci.sum]; !ok || seq > cur.seq {
			copies[ci.sum] = copyAt{ci, seq}
		}
	}
	offerFile := func(f *hostFile, fr entryFrame) {
		d.seq = max(d.seq, fr.seq)
		off := int64(fr.tableLen())
		for _, c := range fr.chunks {
			if !fr.legacy && c.clen > 0 {
				offer(chunkInfo{sum: c.sum, file: f, off: off, clen: c.clen}, fr.seq)
				off += int64(c.clen)
			}
		}
	}
	readFrame := func(path string) (entryFrame, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return entryFrame{}, err
		}
		fr, _, err := decodeManifest(raw)
		return fr, err
	}
	// An entry file or pack that does not parse is dead: remove it, so the
	// entry is recomputed cleanly later.
	frames := make(map[string]entryFrame, len(found))
	files := make(map[string]*hostFile, len(found))
	for _, f := range found {
		fr, err := readFrame(d.path(f.name))
		if err != nil {
			d.errors.Add(1)
			_ = os.Remove(d.path(f.name))
			continue
		}
		files[f.name] = &hostFile{name: f.name, size: f.size, entry: true}
		frames[f.name] = fr
		offerFile(files[f.name], fr)
	}
	var hosts []*hostFile // packs and chunk files
	for _, f := range stored {
		h := &hostFile{name: f.name, size: f.size}
		path := d.hostPath(f.name, false)
		if hexSum, ok := strings.CutSuffix(f.name, chunkSuffix); ok {
			sum, err := hex.DecodeString(hexSum)
			if err != nil || len(sum) != sha256.Size {
				_ = os.Remove(path)
				continue
			}
			offer(chunkInfo{sum: [sha256.Size]byte(sum), file: h, clen: uint32(f.size)}, 0)
		} else {
			fr, err := readFrame(path)
			if err != nil || fr.legacy {
				d.errors.Add(1)
				_ = os.Remove(path)
				continue
			}
			d.packs = max(d.packs, packNumber(f.name))
			offerFile(h, fr)
		}
		hosts = append(hosts, h)
	}

	// An entry is admitted if every chunk it names lies somewhere; its
	// references make the chunk records, in the order the scan found them.
	admitted := make(map[string]manifest, len(frames))
	var dead []*hostFile
	d.mu.Lock()
	for _, f := range found {
		fr, ok := frames[f.name]
		if !ok {
			continue
		}
		if slices.ContainsFunc(fr.chunks, func(c frameChunk) bool { _, ok := copies[c.sum]; return !ok }) {
			d.errors.Add(1)
			dead = append(dead, files[f.name])
			continue
		}
		m := manifest{sum: fr.sum, logical: fr.logical, file: files[f.name], chunks: make([]*chunkInfo, len(fr.chunks))}
		for i, c := range fr.chunks {
			ci := d.chunks[c.sum]
			if ci == nil {
				cp := copies[c.sum].chunkInfo
				ci = &cp
				d.chunks[c.sum] = ci
				ci.file.live++
			}
			ci.refs++
			m.chunks[i] = ci
		}
		d.logical += m.logical
		admitted[f.name] = m
	}
	// Files that hold no chunk a surviving entry references go; a dead
	// entry's file that does becomes a pack.
	for _, h := range hosts {
		if h.live == 0 {
			_ = os.Remove(d.hostPath(h.name, false))
		} else {
			d.bytes += h.size
		}
	}
	for _, h := range dead {
		d.leaveLocked(h)
	}
	d.mu.Unlock()
	d.index(found, func(f diskFile) (manifest, bool) {
		m, ok := admitted[f.name]
		return m, ok
	})
	return d, nil
}

// packNumber returns the number a pack's name ends in, or 0.
func packNumber(name string) int {
	base := strings.TrimSuffix(name, packSuffix)
	n, _ := strconv.Atoi(base[strings.LastIndexByte(base, '.')+1:])
	return n
}

// manifestName maps a content address to its entry file name.
func manifestName(key string) string { return safeName(key) + manifestSuffix }

// hostPath returns the path of the file that holds chunks under name: an
// entry file lies under dir/m, a pack or chunk file under dir/c.
func (d *ChunkedDisk) hostPath(name string, entry bool) string {
	if entry {
		return d.path(name)
	}
	return shardPath(d.chunkRoot, name)
}

// Get returns the stored bytes for key. A missing entry is a plain miss; a
// damaged one (missing or corrupt chunk, checksum mismatch on any chunk or
// the assembled payload) is counted in Errors, dropped, and reported as a
// miss so the caller recomputes.
func (d *ChunkedDisk) Get(key string) ([]byte, bool) { return d.counted(d.Peek(key)) }

// chunkLoc is where a read found one chunk, as of its lookup.
type chunkLoc struct {
	file  *hostFile
	name  string
	entry bool
	off   int64
	clen  uint32
}

// Peek is Get without the hit/miss counters (integrity errors are still
// counted). It reassembles an entry from its chunks, verifying every step:
// each file that holds one of them is opened once, each chunk is read at
// its offset and inflates straight into the payload buffer, sized once from
// the manifest, into at most chunkMax bytes of it, and must match its
// SHA-256; the whole payload must match the manifest's length and SHA-256.
func (d *ChunkedDisk) Peek(key string) ([]byte, bool) {
	name := manifestName(key)
	d.mu.Lock()
	gen, m, ok := d.lookupLocked(name)
	locs := make([]chunkLoc, len(m.chunks))
	for i, ci := range m.chunks {
		locs[i] = chunkLoc{file: ci.file, name: ci.file.name, entry: ci.file.entry, off: ci.off, clen: ci.clen}
	}
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	type opened struct {
		file *hostFile
		f    *os.File // nil if the file would not open
	}
	var files []opened
	defer func() {
		for _, o := range files {
			if o.f != nil {
				o.f.Close()
			}
		}
	}()
	out := make([]byte, m.logical)
	off := 0
	var (
		bad   []*chunkInfo // chunks that are missing or rotten
		short bool         // a chunk overran the manifest's payload length
	)
	for i, ci := range m.chunks {
		loc := locs[i]
		k := slices.IndexFunc(files, func(o opened) bool { return o.file == loc.file })
		if k < 0 {
			files = append(files, opened{loc.file, d.openHost(loc)})
			k = len(files) - 1
		}
		space := out[off:min(off+chunkMax, len(out))]
		n, err := 0, errHostGone
		if f := files[k].f; f != nil {
			n, err = inflateChunk(space, io.NewSectionReader(f, loc.off, int64(loc.clen)))
		}
		switch {
		case err == nil && sha256.Sum256(space[:n]) == ci.sum:
			off += n
		case errors.Is(err, errChunkTooLarge) && len(space) < chunkMax:
			// Only the manifest's length is known wrong here, not the chunk.
			short = true
		default:
			// Every chunk is checked, so one failed read finds all of the
			// entry's damaged chunks and the next Put rewrites them all.
			bad = append(bad, ci)
		}
	}
	if bad != nil || short || off != len(out) || sha256.Sum256(out) != m.sum {
		// The damage is real only if the entry is still the generation
		// looked up: otherwise a concurrent Put replaced it, or eviction
		// removed it and released its chunks, after the lookup, and this is
		// a plain miss. So is a read that raced a file becoming a pack: a
		// Put of that file's key may have published a new file at the
		// name the read opened. Checking and dropping under one lock leaves
		// no window in which a Put could reference a chunk about to be
		// forgotten.
		d.mu.Lock()
		moved := slices.ContainsFunc(locs, func(l chunkLoc) bool { return l.file.name != l.name })
		if !moved && d.dropStaleLocked(name, gen, true) {
			d.forgetLocked(bad)
		}
		d.mu.Unlock()
		return nil, false
	}
	touch(d.path(name))
	return out, true
}

// errHostGone reports a chunk whose file did not open.
var errHostGone = errors.New("resultstore: the file holding a chunk did not open")

// openHost opens the file a read found holding a chunk, or returns nil if
// it cannot; every chunk read from it then fails. A file is renamed at
// most once, into a pack, when its entry leaves while it still holds live
// chunks, so a failed open looks the file up once more and follows the
// rename.
func (d *ChunkedDisk) openHost(loc chunkLoc) *os.File {
	if loc.name == "" {
		return nil
	}
	if f, err := os.Open(d.hostPath(loc.name, loc.entry)); err == nil {
		return f
	}
	d.mu.Lock()
	name, entry := loc.file.name, loc.file.entry
	d.mu.Unlock()
	if name == "" || name == loc.name {
		return nil
	}
	f, err := os.Open(d.hostPath(name, entry))
	if err != nil {
		return nil
	}
	return f
}

// forgetLocked drops missing or rotten chunks store-wide: every entry that
// references one is unservable, and removing the chunk's record makes the
// next Put of any of them store it again. Each referencing entry degrades
// to a miss when read. A chunk is dropped only if its record is still the
// one the failed read counted on; a Put that stored a fresh copy after an
// earlier drop made a new record, and that copy stays. A Put that pinned
// a dropped record gives up at install. Called with mu held.
func (d *ChunkedDisk) forgetLocked(bad []*chunkInfo) {
	for _, ci := range bad {
		if d.chunks[ci.sum] == ci {
			d.removeChunkLocked(ci)
		}
	}
}

// Put stores key's bytes. Failures are tolerated (counted in Errors) — the
// tier is an accelerator, never a correctness dependency. An entry already
// stored under key with the same bytes, all of whose chunks are still
// indexed, is only marked recently used.
//
// Put splits the payload and hashes every chunk first, then writes one
// file, the entry file, with d.mu held only on either side of that work:
//
//  1. Claim, under the lock: pin every chunk the manifest names by counting
//     its reference now, so eviction cannot delete it in the meantime, and
//     create a record for each chunk the store has never seen. A chunk
//     whose record has no file yet is not on disk yet (its record is new,
//     or another Put is still writing it): this Put stores it.
//  2. Write, without the lock: compress each chunk this Put stores, once
//     even if the payload repeats it, and stage the entry file — the
//     manifest, then those chunks — through a synced temp file.
//  3. Install, under the lock: unless a chunk the Put pinned was dropped
//     store-wide meanwhile (a failed read found it rotten), remove any
//     older entry of key, publish the file by renaming it into place, point
//     the records of the chunks it holds at it, and index the entry,
//     evicting past the cap. The pins taken at claim are the entry's
//     references. If another Put installed one of this Put's chunks first,
//     this Put stages its file again without that chunk and references
//     that Put's copy instead, so no chunk is held by two files.
//
// A Put that fails gives its pins back; a chunk is dropped only when no
// installed entry references it and no other Put pins it. A crash between
// any two steps leaves only a temp file, which Open sweeps, or a published
// file that Open indexes like any other.
func (d *ChunkedDisk) Put(key string, val []byte) {
	name := manifestName(key)
	path := d.path(name)
	spans := splitChunks(val)
	m := manifest{sum: sha256.Sum256(val), logical: int64(len(val)), chunks: make([]*chunkInfo, len(spans))}
	fr := entryFrame{sum: m.sum, logical: m.logical, chunks: make([]frameChunk, len(spans))}
	for i, sp := range spans {
		fr.chunks[i].sum = sha256.Sum256(sp)
	}

	// Claim. stores[i] is whether this Put stores chunk i.
	stores := make([]bool, len(spans))
	d.mu.Lock()
	if _, old, ok := d.lookupLocked(name); ok && old.sum == m.sum && old.logical == m.logical && d.indexedLocked(old.chunks) {
		d.mu.Unlock()
		touch(path)
		return
	}
	d.seq++
	fr.seq = d.seq
	for i, c := range fr.chunks {
		ci := d.chunks[c.sum]
		if ci == nil {
			ci = &chunkInfo{sum: c.sum}
			d.chunks[c.sum] = ci
		}
		ci.refs++
		m.chunks[i] = ci
		stores[i] = ci.file == nil && !slices.Contains(m.chunks[:i], ci)
	}
	d.mu.Unlock()

	// Write: the table, then each chunk this Put stores, compressed in
	// place after it; then the table again, now with their lengths.
	capacity := fr.tableLen()
	for i, store := range stores {
		if store {
			capacity += len(spans[i]) + 16 // room for DEFLATE's framing
		}
	}
	file := bytes.NewBuffer(appendManifest(make([]byte, 0, capacity), fr))
	var compressed int64
	for i, store := range stores {
		if store {
			fr.chunks[i].clen = uint32(compressChunk(file, spans[i]))
			compressed++
		}
	}
	d.compressed.Add(compressed)
	raw := file.Bytes()
	appendManifest(raw[:0], fr)
	for {
		tmp, ok := d.stage(path, raw)
		if !ok {
			d.unpin(m.chunks)
			return
		}
		written := int64(0)
		for _, c := range fr.chunks {
			if c.clen > 0 {
				written++
			}
		}
		d.files.Add(1)
		d.chunkWrites.Add(written)
		if d.install(name, tmp, int64(len(raw)), m, &fr) {
			return
		}
		raw = restage(raw, fr)
	}
}

// restage rebuilds the staged entry file raw for fr, which holds only some
// of the chunks raw holds.
func restage(raw []byte, fr entryFrame) []byte {
	staged, body, _ := decodeManifest(raw) // raw is a file Put built
	out := appendManifest(nil, fr)
	for i, c := range staged.chunks {
		if fr.chunks[i].clen > 0 {
			out = append(out, body[:c.clen]...)
		}
		body = body[c.clen:]
	}
	return out
}

// install is step 3 of Put: it publishes the staged file tmp as name's
// entry file and indexes m, or gives the Put up. It returns false, having
// removed tmp, when another Put installed a chunk fr stores since the
// claim: fr then no longer stores it, and the caller stages again.
func (d *ChunkedDisk) install(name, tmp string, size int64, m manifest, fr *entryFrame) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	again := false
	for i := range fr.chunks {
		if fr.chunks[i].clen > 0 && m.chunks[i].file != nil {
			fr.chunks[i].clen = 0
			again = true
		}
	}
	if again {
		_ = os.Remove(tmp)
		return false
	}
	// The older entry goes first, so its file is deleted or becomes a pack
	// before this one takes its name. The pins are already references, so
	// chunks the two share never dip to zero references meanwhile.
	if el, ok := d.idx[name]; ok {
		d.removeLocked(el, true)
	}
	if !d.indexedLocked(m.chunks) {
		_ = os.Remove(tmp)
		d.unpinLocked(m.chunks)
		return true
	}
	path := d.path(name)
	if !d.publish(tmp, path) {
		d.unpinLocked(m.chunks)
		return true
	}
	m.file = &hostFile{name: name, size: size, entry: true}
	off := int64(fr.tableLen())
	for i, c := range fr.chunks {
		if c.clen > 0 {
			ci := m.chunks[i]
			ci.file, ci.off, ci.clen = m.file, off, c.clen
			m.file.live++
			off += int64(c.clen)
		}
	}
	d.logical += m.logical
	d.installLocked(name, size, m)
	return true
}

// indexedLocked reports whether every record in refs is still its chunk's
// indexed record. Called with mu held.
func (d *ChunkedDisk) indexedLocked(refs []*chunkInfo) bool {
	for _, ci := range refs {
		if d.chunks[ci.sum] != ci {
			return false
		}
	}
	return true
}

// unpin gives back the pins of a Put that failed; see unpinLocked.
func (d *ChunkedDisk) unpin(refs []*chunkInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.unpinLocked(refs)
}

// release is the diskTier cleanup hook: an entry left the index (dropped,
// evicted or replaced), so its chunk references go, and so does its file.
// Called with mu held.
func (d *ChunkedDisk) release(m manifest) {
	d.logical -= m.logical
	d.unpinLocked(m.chunks)
	d.leaveLocked(m.file)
}

// leaveLocked handles an entry file whose entry is gone: the file is
// deleted, unless it holds a chunk that a live entry references. Then it
// is renamed into dir/c as a pack, and its bytes, which no index record
// counts any more, are counted as the pack's. If the rename fails, the
// file is deleted anyway and the chunks it held are dropped store-wide,
// as if they had rotted. Called with mu held.
func (d *ChunkedDisk) leaveLocked(h *hostFile) {
	h.entry = false
	from := d.path(h.name)
	if h.live == 0 {
		if err := os.Remove(from); err != nil && !os.IsNotExist(err) {
			d.errors.Add(1)
		}
		h.name = ""
		return
	}
	d.packs++
	name := strings.TrimSuffix(h.name, manifestSuffix) + "." + strconv.Itoa(d.packs) + packSuffix
	to := d.hostPath(name, false)
	err := os.Rename(from, to)
	if err != nil {
		if err = os.MkdirAll(filepath.Dir(to), 0o755); err == nil {
			err = os.Rename(from, to)
		}
	}
	if err != nil {
		if !os.IsNotExist(err) {
			d.errors.Add(1)
		}
		_ = os.Remove(from)
		h.name, h.size = "", 0
		for _, ci := range d.chunks {
			if ci.file == h {
				d.removeChunkLocked(ci)
			}
		}
		return
	}
	h.name = name
	d.bytes += h.size
}

// unpinLocked drops one reference per chunk and drops the chunks nothing
// references or pins any more. A reference whose chunk was dropped
// store-wide since (see forgetLocked) was counted on a record that is
// gone, and is skipped. Called with mu held.
func (d *ChunkedDisk) unpinLocked(refs []*chunkInfo) {
	for _, ci := range refs {
		if d.chunks[ci.sum] != ci {
			continue
		}
		if ci.refs--; ci.refs <= 0 {
			d.removeChunkLocked(ci)
		}
	}
}

// removeChunkLocked deletes a chunk's record. A pack or chunk file left
// holding no live chunk is deleted with it. Called with mu held.
func (d *ChunkedDisk) removeChunkLocked(ci *chunkInfo) {
	delete(d.chunks, ci.sum)
	h := ci.file
	if h == nil {
		return
	}
	if h.live--; h.live == 0 && !h.entry {
		if h.name != "" {
			_ = os.Remove(d.hostPath(h.name, false))
		}
		d.bytes -= h.size
		h.name, h.size = "", 0
	}
}

// Stats snapshots the tier's counters. Bytes is compressed, deduplicated
// on-disk occupancy (what the size cap evicts against); LogicalBytes is the
// payload volume represented.
func (d *ChunkedDisk) Stats() TierStats {
	return d.stats(func(int, int64) int64 { return d.logical })
}

// appendManifest appends an entry file's table to dst. A file of this
// format continues with the chunks the table says it holds.
func appendManifest(dst []byte, f entryFrame) []byte {
	magic := chunkedMagic
	if f.legacy {
		magic = chunkedMagicV1
	}
	dst = append(dst, magic...)
	dst = append(dst, f.sum[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.logical))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.chunks)))
	if !f.legacy {
		dst = binary.BigEndian.AppendUint64(dst, f.seq)
	}
	for _, c := range f.chunks {
		dst = append(dst, c.sum[:]...)
		dst = binary.BigEndian.AppendUint32(dst, c.clen)
	}
	return dst
}

// decodeManifest parses and validates an entry file's framing, of either
// format, and returns its table and the chunk bytes that follow it (chunk
// content is verified lazily at Get).
func decodeManifest(raw []byte) (f entryFrame, body []byte, err error) {
	if len(raw) < manifestHeaderLen {
		return f, nil, fmt.Errorf("resultstore: bad manifest header")
	}
	switch string(raw[:len(chunkedMagic)]) {
	case chunkedMagic:
	case chunkedMagicV1:
		f.legacy = true
	default:
		return f, nil, fmt.Errorf("resultstore: bad manifest header")
	}
	off := len(chunkedMagic)
	copy(f.sum[:], raw[off:])
	off += sha256.Size
	f.logical = int64(binary.BigEndian.Uint64(raw[off:]))
	off += 8
	n := binary.BigEndian.Uint32(raw[off:])
	off += 4
	table := int64(manifestHeaderLen) + int64(n)*chunkRefLen
	if !f.legacy {
		if len(raw) < off+8 {
			return f, nil, fmt.Errorf("resultstore: bad manifest header")
		}
		f.seq = binary.BigEndian.Uint64(raw[off:])
		off += 8
		table += 8
	}
	if f.logical < 0 || int64(len(raw)) < table {
		return f, nil, fmt.Errorf("resultstore: manifest length %d too short for %d chunks", len(raw), n)
	}
	// A payload's chunk count is bounded by its length both ways: every
	// chunk but the last holds at least chunkMin bytes, none holds more
	// than chunkMax, and empty payloads have no chunks. Anything else is a
	// torn or forged manifest, whose length must not size the read buffer.
	if (n == 0) != (f.logical == 0) || int64(n) > f.logical/chunkMin+1 || f.logical > int64(n)*chunkMax {
		return f, nil, fmt.Errorf("resultstore: manifest chunk count %d inconsistent with length %d", n, f.logical)
	}
	f.chunks = make([]frameChunk, n)
	held := int64(0)
	for i := range f.chunks {
		copy(f.chunks[i].sum[:], raw[off:])
		off += sha256.Size
		f.chunks[i].clen = binary.BigEndian.Uint32(raw[off:])
		off += 4
		if !f.legacy {
			held += int64(f.chunks[i].clen)
		}
	}
	if int64(len(raw)) != table+held {
		return f, nil, fmt.Errorf("resultstore: manifest length %d does not match %d chunks holding %d bytes", len(raw), n, held)
	}
	return f, raw[table:], nil
}
