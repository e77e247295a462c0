package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
)

// Disk is the persistent tier: one file per content address under a root
// directory, each framed with a checksum so torn or bit-rotted entries are
// detected on read and treated as misses (the file is removed, and the next
// store of that address repairs it). Recency, eviction, atomic writes and
// the integrity protocol are the shared diskTier's; Disk adds the entry
// frame. Sizes are whole entry files, so the cap bounds real disk use.
type Disk struct {
	diskTier[struct{}]
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
// files from interrupted writes are removed.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	d := &Disk{}
	d.open(dir, "", entrySuffix, maxBytes, nil)
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, nil
}

// fileName maps a content address to its entry file name.
func fileName(key string) string {
	return safeName(key) + entrySuffix
}

// Get returns the stored bytes for key. A missing file is a plain miss; an
// unreadable or corrupt file is counted in Errors, removed, and reported as
// a miss so the caller recomputes (and Put repairs the entry).
func (d *Disk) Get(key string) ([]byte, bool) { return d.counted(d.Peek(key)) }

// Peek is Get without the hit/miss counters (integrity errors are still
// counted).
func (d *Disk) Peek(key string) ([]byte, bool) {
	name := fileName(key)
	gen, _, ok := d.lookup(name)
	if !ok {
		return nil, false
	}
	path := d.path(name)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Indexed but unreadable (deleted underneath us, permissions):
		// drop the index record and miss, leaving the file, if any, alone.
		d.dropStale(name, gen, false)
		return nil, false
	}
	val, err := DecodeEntry(raw)
	if err != nil {
		// Torn write or bit rot: never serve it. Remove the file so the
		// next store of this address rewrites it cleanly.
		d.dropStale(name, gen, true)
		return nil, false
	}
	touch(path)
	return val, true
}

// Put stores key's bytes, evicting least-recently-used entries if the cap
// is exceeded. Storage failures are tolerated (counted in Errors): the disk
// tier is an accelerator, never a correctness dependency, so a failed write
// only means the address is recomputed later.
func (d *Disk) Put(key string, val []byte) {
	name := fileName(key)
	path := d.path(name)
	buf := EncodeEntry(val)
	tmp, ok := d.stage(path, buf)
	if !ok {
		return
	}
	// The rename happens inside the critical section so that making the
	// file visible and indexing it (with a new generation) are atomic with
	// respect to dropStale: a reader that found the old file damaged can
	// never remove this fresh one.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.publish(tmp, path) {
		d.installLocked(name, int64(len(buf)), struct{}{})
	}
}

// Stats snapshots the tier's counters.
func (d *Disk) Stats() TierStats {
	// Every entry file is exactly header + payload, so the payload volume
	// this uncompressed tier represents is its occupancy minus the
	// per-entry framing.
	return d.stats(func(entries int, bytes int64) int64 {
		return bytes - int64(entries)*int64(diskHeaderLen)
	})
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
