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

// Disk is the persistent tier: one file per content address under a root
// directory, each framed with a checksum so torn or bit-rotted entries are
// detected on read and treated as misses (the file is removed, and the next
// store of that address repairs it). Writes are atomic (temp file + rename
// in the same directory), so a crash mid-write never leaves a live entry
// half-written — at worst it leaves a temp file that Open sweeps away.
//
// The tier is size-capped: an in-memory recency index (seeded from file
// mtimes at Open, maintained exactly while the process lives, and persisted
// back via mtime touches on access) drives LRU eviction when the cap is
// exceeded. Sizes are whole entry files, so the cap bounds real disk use.
type Disk struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *diskEntry
	idx   map[string]*list.Element
	bytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	errors    atomic.Int64
}

// diskEntry is the index record for one entry file.
type diskEntry struct {
	name string // file name (see fileName), also the index key
	size int64  // whole-file size
	// gen counts rewrites of this entry. A reader that found the file
	// damaged only removes it if gen is still what it read under — a
	// concurrent Put that re-rendered the entry bumps gen, telling the
	// reader its observation is stale and the fresh file must stay.
	gen uint64
}

// Entry-file framing: magic, the SHA-256 of the payload, the payload length,
// then the payload. Reads verify all three; any mismatch is corruption.
const diskMagic = "cdcsrs1\n"

const diskHeaderLen = len(diskMagic) + sha256.Size + 8

// entrySuffix distinguishes live entries from temp files mid-rename.
const entrySuffix = ".e"

// OpenDisk opens (creating if needed) a disk tier rooted at dir, capped at
// maxBytes of entry files (0 or negative means uncapped). Existing entries
// are indexed by file mtime so recency survives restarts; leftover temp
// files from interrupted writes are removed. Entry integrity is verified
// lazily on Get, not at Open, so opening a large corpus is cheap.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: open disk tier: %w", err)
	}
	d := &Disk{
		dir:      dir,
		maxBytes: maxBytes,
		lru:      list.New(),
		idx:      map[string]*list.Element{},
	}

	type scanned struct {
		name  string
		size  int64
		mtime time.Time
	}
	var found []scanned
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		name := de.Name()
		if !strings.HasSuffix(name, entrySuffix) {
			// Interrupted atomic write (or foreign debris): sweep it.
			_ = os.Remove(path)
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil // raced with concurrent removal; skip
		}
		found = append(found, scanned{name: name, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: scanning %s: %w", dir, err)
	}
	// Oldest first, name as tiebreaker so rebuilds are deterministic; the
	// loop pushes each to the front, leaving the newest at the front.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		d.idx[f.name] = d.lru.PushFront(&diskEntry{name: f.name, size: f.size})
		d.bytes += f.size
	}
	d.mu.Lock()
	d.evictOverCapLocked()
	d.mu.Unlock()
	return d, nil
}

// Name implements Tier.
func (d *Disk) Name() string { return "disk" }

// safeName maps a content address to a filesystem-safe base name. Keys from
// the serving layer are hex SHA-256 digests and map through unchanged (so
// the on-disk corpus is human-greppable by content address); anything else
// is rehashed into that shape rather than trusted as a path component.
func safeName(key string) string {
	safe := key != "" && len(key) <= 128
	for i := 0; safe && i < len(key); i++ {
		c := key[i]
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9') {
			safe = false
		}
	}
	if !safe {
		sum := sha256.Sum256([]byte(key))
		return "x" + hex.EncodeToString(sum[:])
	}
	return key
}

// fileName maps a content address to its entry file name.
func fileName(key string) string {
	return safeName(key) + entrySuffix
}

// path returns the absolute path of an entry file. Entries spread over 256
// shard subdirectories by name prefix so no single directory grows huge.
func (d *Disk) path(name string) string {
	shard := "xx"
	if len(name) >= 2 {
		shard = name[:2]
	}
	return filepath.Join(d.dir, shard, name)
}

// Get returns the stored bytes for key. A missing file is a plain miss; an
// unreadable or corrupt file is counted in Errors, removed, and reported as
// a miss so the caller recomputes (and Put repairs the entry).
func (d *Disk) Get(key string) ([]byte, bool) {
	val, ok := d.get(key)
	if ok {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return val, ok
}

// Peek is Get without the hit/miss counters (integrity errors are still
// counted). The chain uses it inside a flight whose lookup was already
// counted, so one logical lookup counts once per tier.
func (d *Disk) Peek(key string) ([]byte, bool) {
	return d.get(key)
}

// get is the shared lookup path.
func (d *Disk) get(key string) ([]byte, bool) {
	name := fileName(key)
	d.mu.Lock()
	el, ok := d.idx[name]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	gen := el.Value.(*diskEntry).gen
	d.lru.MoveToFront(el)
	d.mu.Unlock()

	path := d.path(name)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Indexed but unreadable (deleted underneath us, permissions):
		// drop the index record and miss. The file, if any, stays — a
		// concurrent Put may have just renamed a fresh one into place.
		d.errors.Add(1)
		d.dropStale(name, gen, false)
		return nil, false
	}
	val, err := DecodeEntry(raw)
	if err != nil {
		// Torn write or bit rot: never serve it. Remove the file so the
		// next store of this address rewrites it cleanly — unless a
		// concurrent Put already did exactly that (gen moved on).
		d.errors.Add(1)
		d.dropStale(name, gen, true)
		return nil, false
	}
	// Persist recency so LRU order survives restarts (mtime is the on-disk
	// access index; failure only costs eviction precision after a restart).
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return val, true
}

// Put stores key's bytes, evicting least-recently-used entries if the cap
// is exceeded. Storage failures are tolerated (counted in Errors): the disk
// tier is an accelerator, never a correctness dependency, so a failed write
// only means the address is recomputed later.
func (d *Disk) Put(key string, val []byte) {
	name := fileName(key)
	path := d.path(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		d.errors.Add(1)
		return
	}
	buf := EncodeEntry(val)
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		d.errors.Add(1)
		return
	}
	_, werr := tmp.Write(buf)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}

	// The rename happens inside the critical section so that making the
	// file visible and indexing it (with a bumped generation) are atomic
	// with respect to dropStale — a reader that found the old file damaged
	// can never remove this fresh one.
	size := int64(len(buf))
	d.mu.Lock()
	if err := os.Rename(tmp.Name(), path); err != nil {
		d.mu.Unlock()
		_ = os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}
	if el, ok := d.idx[name]; ok {
		e := el.Value.(*diskEntry)
		d.bytes += size - e.size
		e.size = size
		e.gen++
		d.lru.MoveToFront(el)
	} else {
		d.idx[name] = d.lru.PushFront(&diskEntry{name: name, size: size})
		d.bytes += size
	}
	d.evictOverCapLocked()
	d.mu.Unlock()
}

// dropStale removes name from the index — and, with removeFile, the entry
// file itself — but only if the entry's generation still matches what the
// failed reader observed. A moved-on generation means a concurrent Put
// replaced the entry after the read: the fresh entry stays.
func (d *Disk) dropStale(name string, gen uint64, removeFile bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.idx[name]
	if !ok || el.Value.(*diskEntry).gen != gen {
		return
	}
	d.bytes -= el.Value.(*diskEntry).size
	d.lru.Remove(el)
	delete(d.idx, name)
	if removeFile {
		// Under d.mu: a racing Put cannot rename a fresh file into place
		// between this check and the remove, because Put's rename-then-index
		// sequence also serializes on d.mu before becoming visible.
		_ = os.Remove(d.path(name))
	}
}

// evictOverCapLocked removes least-recently-used entry files until within
// the byte cap. Called with d.mu held. The newest entry always stays, so a
// single oversized entry cannot evict itself into a livelock.
func (d *Disk) evictOverCapLocked() {
	if d.maxBytes <= 0 {
		return
	}
	for d.bytes > d.maxBytes && d.lru.Len() > 1 {
		el := d.lru.Back()
		e := el.Value.(*diskEntry)
		d.lru.Remove(el)
		delete(d.idx, e.name)
		d.bytes -= e.size
		if err := os.Remove(d.path(e.name)); err != nil && !os.IsNotExist(err) {
			d.errors.Add(1)
		}
		d.evictions.Add(1)
	}
}

// Keys returns the fetchable addresses of the indexed entries, for manifest
// export. File names double as addresses: serving-layer keys (lowercase hex
// digests) map through safeName unchanged, and a rehashed name is itself a
// valid address for the same file (safeName is idempotent), so every
// returned key resolves through Get/GetLocal to the entry it names.
func (d *Disk) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.idx))
	for name := range d.idx {
		out = append(out, strings.TrimSuffix(name, entrySuffix))
	}
	return out
}

// Stats snapshots the tier's counters.
func (d *Disk) Stats() TierStats {
	d.mu.Lock()
	entries, bytes := d.lru.Len(), d.bytes
	d.mu.Unlock()
	return TierStats{
		Name:      "disk",
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Evictions: d.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		// Every entry file is exactly header + payload, so the payload
		// volume this uncompressed tier represents is its occupancy minus
		// the per-entry framing.
		LogicalBytes: bytes - int64(entries)*int64(diskHeaderLen),
		Errors:       d.errors.Load(),
	}
}

// EncodeEntry frames a payload with the entry checksum header (magic,
// payload SHA-256, payload length). The disk tier stores entries in this
// frame, and /v1/blob serves them in it, so a peer fetching an entry
// verifies the same integrity envelope a local disk read does.
func EncodeEntry(val []byte) []byte {
	buf := make([]byte, 0, diskHeaderLen+len(val))
	buf = append(buf, diskMagic...)
	sum := sha256.Sum256(val)
	buf = append(buf, sum[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(val)))
	return append(buf, val...)
}

// DecodeEntry verifies an EncodeEntry frame and returns the payload.
func DecodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < diskHeaderLen || string(raw[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("resultstore: bad entry header")
	}
	wantSum := raw[len(diskMagic) : len(diskMagic)+sha256.Size]
	n := binary.BigEndian.Uint64(raw[len(diskMagic)+sha256.Size : diskHeaderLen])
	payload := raw[diskHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("resultstore: entry length %d, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(wantSum) {
		return nil, fmt.Errorf("resultstore: entry checksum mismatch")
	}
	return payload, nil
}
