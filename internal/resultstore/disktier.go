package resultstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// diskTier is the protocol both persistent tiers (Disk and ChunkedDisk)
// share. Each entry is one file under dir/sub, sharded by name prefix. An
// in-memory recency index, seeded from file mtimes at open, kept exact while
// the process lives and persisted back by touching mtimes on read, drives
// LRU eviction past the byte cap. Files are written atomically (temp file,
// fsync, rename in the same directory), so a crash leaves at worst a temp
// file, which open sweeps.
//
// A read that finds an entry damaged drops it only if the entry's
// generation is still the one the read saw. Every install takes a fresh
// generation, so a concurrent Put that replaced the entry after the read
// is never undone by the stale reader.
//
// M is the format's per-entry metadata. release, when set, is the format's
// cleanup hook: it runs with mu held whenever an entry's metadata leaves the
// index, whether the entry was dropped, evicted or replaced. A format with a
// release hook owns its entry files: the tier never deletes one itself.
type diskTier[M any] struct {
	dir      string // the tier's root
	root     string // dir/sub, which holds the entry files
	suffix   string // file-name suffix of entry files
	maxBytes int64
	release  func(M)

	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *diskRecord[M]
	idx   map[string]*list.Element
	bytes int64  // on-disk occupancy: entry files plus what the format adds
	gen   uint64 // the last generation handed out

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	errors    atomic.Int64
}

// diskRecord is the index record for one entry file.
type diskRecord[M any] struct {
	name string // file name, also the index key
	size int64  // whole-file size
	gen  uint64
	meta M
}

// diskFile is one file a scan found.
type diskFile struct {
	name  string
	size  int64
	mtime time.Time
}

// open prepares an empty tier whose entry files live under dir/sub and end
// in suffix, capped at maxBytes of occupancy (0 or negative means
// uncapped). load fills the index.
func (t *diskTier[M]) open(dir, sub, suffix string, maxBytes int64, release func(M)) {
	t.dir, t.root, t.suffix = dir, filepath.Join(dir, sub), suffix
	t.maxBytes, t.release = maxBytes, release
	t.lru = list.New()
	t.idx = map[string]*list.Element{}
}

// Name implements Tier. Both formats are the disk tier: same role, same
// metrics label.
func (t *diskTier[M]) Name() string { return "disk" }

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

// shardPath returns the path of file under root. Files spread over 256
// shard subdirectories by their first two characters, so no single
// directory grows huge.
func shardPath(root, file string) string {
	shard := "xx"
	if len(file) >= 2 {
		shard = file[:2]
	}
	return filepath.Join(root, shard, file)
}

// path returns the path of an entry file.
func (t *diskTier[M]) path(name string) string { return shardPath(t.root, name) }

// scan lists the files under root whose names end in one of suffixes,
// creating root if needed. Anything else there is the temp file of an
// interrupted write, or foreign debris, and is removed.
func (t *diskTier[M]) scan(root string, suffixes ...string) ([]diskFile, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: open disk tier: %w", err)
	}
	var found []diskFile
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		if !slices.ContainsFunc(suffixes, func(suffix string) bool { return strings.HasSuffix(de.Name(), suffix) }) {
			_ = os.Remove(path)
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil // raced with concurrent removal; skip
		}
		found = append(found, diskFile{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: scanning %s: %w", t.dir, err)
	}
	return found, nil
}

// load scans the entry files and indexes them; see index.
func (t *diskTier[M]) load() error {
	found, err := t.scan(t.root, t.suffix)
	if err != nil {
		return err
	}
	t.index(found, nil)
	return nil
}

// index indexes the entry files found by mtime, oldest first with the name
// as tiebreak, so the rebuild is deterministic and the newest entry ends at
// the front; then it evicts past the cap. admit, when set, returns an
// entry's metadata and may refuse the entry; it runs with mu held. Entry
// integrity is verified lazily on read, so opening a large corpus costs no
// full read pass.
func (t *diskTier[M]) index(found []diskFile, admit func(diskFile) (M, bool)) {
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].name < found[j].name
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range found {
		var meta M
		if admit != nil {
			var ok bool
			if meta, ok = admit(f); !ok {
				continue
			}
		}
		t.idx[f.name] = t.lru.PushFront(&diskRecord[M]{name: f.name, size: f.size, meta: meta})
		t.bytes += f.size
	}
	t.evictOverCapLocked()
}

// counted applies the hit and miss counters to one lookup's outcome. Each
// format's Get is counted(Peek(key)); Peek is the uncounted read the chain
// uses inside a flight whose lookup was already counted, so one logical
// lookup counts once per tier. Integrity errors are counted either way.
func (t *diskTier[M]) counted(val []byte, ok bool) ([]byte, bool) {
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return val, ok
}

// lookup finds name's entry and marks it most recently used. It returns the
// entry's generation, which a read that then finds the entry damaged passes
// back to dropStale, and its metadata.
func (t *diskTier[M]) lookup(name string) (gen uint64, meta M, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookupLocked(name)
}

// lookupLocked is lookup with mu held.
func (t *diskTier[M]) lookupLocked(name string) (gen uint64, meta M, ok bool) {
	el, ok := t.idx[name]
	if !ok {
		return 0, meta, false
	}
	t.lru.MoveToFront(el)
	r := el.Value.(*diskRecord[M])
	return r.gen, r.meta, true
}

// touch persists an entry's recency as the mtime of its file at path, the
// on-disk access index, so LRU order survives a restart. A failure only
// costs eviction precision after one.
func touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// dropStale handles a read that found name's entry unreadable or damaged.
// The damage is real only if the entry's generation is still gen: then it
// counts an error and removes the entry, and removeFile also deletes the
// entry file, under mu, so a racing Put (which renames and installs under
// mu too) cannot have put a fresh file there. A moved-on generation, or no
// entry at all, means a concurrent Put replaced the entry or eviction
// removed it after the read's lookup: the fresh entry stays, and the read
// is a plain miss.
func (t *diskTier[M]) dropStale(name string, gen uint64, removeFile bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropStaleLocked(name, gen, removeFile)
}

// dropStaleLocked is dropStale with mu held; it reports whether the entry
// was dropped.
func (t *diskTier[M]) dropStaleLocked(name string, gen uint64, removeFile bool) bool {
	el, ok := t.idx[name]
	if !ok || el.Value.(*diskRecord[M]).gen != gen {
		return false
	}
	t.errors.Add(1)
	t.removeLocked(el, removeFile)
	return true
}

// installLocked indexes a freshly written entry file as the most recently
// used, under a new generation, replacing any older record of name, then
// evicts past the cap. Called with mu held.
func (t *diskTier[M]) installLocked(name string, size int64, meta M) {
	t.gen++
	if el, ok := t.idx[name]; ok {
		r := el.Value.(*diskRecord[M])
		old := r.meta
		t.bytes += size - r.size
		r.size, r.gen, r.meta = size, t.gen, meta
		t.lru.MoveToFront(el)
		if t.release != nil {
			t.release(old)
		}
	} else {
		t.idx[name] = t.lru.PushFront(&diskRecord[M]{name: name, size: size, gen: t.gen, meta: meta})
		t.bytes += size
	}
	t.evictOverCapLocked()
}

// removeLocked unlinks an entry from the index and hands its metadata to
// the release hook, if any; otherwise removeFile deletes the entry file.
// Called with mu held.
func (t *diskTier[M]) removeLocked(el *list.Element, removeFile bool) {
	r := el.Value.(*diskRecord[M])
	t.lru.Remove(el)
	delete(t.idx, r.name)
	t.bytes -= r.size
	if t.release != nil {
		t.release(r.meta)
		return
	}
	if removeFile {
		if err := os.Remove(t.path(r.name)); err != nil && !os.IsNotExist(err) {
			t.errors.Add(1)
		}
	}
}

// evictOverCapLocked removes least-recently-used entries until occupancy is
// within the byte cap. The newest entry always stays, so a single oversized
// entry cannot evict itself into a livelock. Called with mu held.
func (t *diskTier[M]) evictOverCapLocked() {
	if t.maxBytes <= 0 {
		return
	}
	for t.bytes > t.maxBytes && t.lru.Len() > 1 {
		t.removeLocked(t.lru.Back(), true)
		t.evictions.Add(1)
	}
}

// Keys returns the fetchable addresses of the indexed entries, for manifest
// export. File names double as addresses: serving-layer keys (lowercase hex
// digests) map through safeName unchanged, and a rehashed name is itself a
// valid address for the same file (safeName is idempotent), so every
// returned key resolves through Get/GetLocal to the entry it names.
func (t *diskTier[M]) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.idx))
	for name := range t.idx {
		out = append(out, strings.TrimSuffix(name, t.suffix))
	}
	return out
}

// stats snapshots the counters. logical computes LogicalBytes from the same
// locked snapshot of the entry count and occupancy.
func (t *diskTier[M]) stats(logical func(entries int, bytes int64) int64) TierStats {
	t.mu.Lock()
	entries, bytes := t.lru.Len(), t.bytes
	lb := logical(entries, bytes)
	t.mu.Unlock()
	return TierStats{
		Name:         t.Name(),
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		Evictions:    t.evictions.Load(),
		Entries:      entries,
		Bytes:        bytes,
		LogicalBytes: lb,
		Errors:       t.errors.Load(),
	}
}

// stage writes data to a synced temp file in path's directory, creating the
// directory if needed, and returns the temp file's name. A failure is
// counted and leaves nothing behind.
func (t *diskTier[M]) stage(path string, data []byte) (string, bool) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.errors.Add(1)
		return "", false
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		t.errors.Add(1)
		return "", false
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		t.errors.Add(1)
		return "", false
	}
	return tmp.Name(), true
}

// publish renames a staged temp file onto path, the step that makes a write
// visible. A failure is counted and removes the temp file.
func (t *diskTier[M]) publish(tmp, path string) bool {
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		t.errors.Add(1)
		return false
	}
	return true
}
