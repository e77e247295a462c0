package resultstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// diskKey returns a content-address-shaped key (hex-ish, unique per i).
func diskKey(i int) string { return fmt.Sprintf("deadbeef%08x", i) }

func TestDiskPutGetRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("absent"); ok {
		t.Fatal("empty tier reported a hit")
	}
	d.Put(diskKey(1), []byte("payload-one"))
	v, ok := d.Get(diskKey(1))
	if !ok || string(v) != "payload-one" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if want := int64(diskHeaderLen + len("payload-one")); st.Bytes != want {
		t.Errorf("bytes = %d, want %d (whole entry file)", st.Bytes, want)
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.Put(diskKey(i), []byte(fmt.Sprintf("value-%d", i)))
	}

	// A new process: same directory, fresh index.
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats().Entries != 5 {
		t.Fatalf("reopened tier has %d entries, want 5", d2.Stats().Entries)
	}
	for i := 0; i < 5; i++ {
		v, ok := d2.Get(diskKey(i))
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Errorf("after reopen, Get(%d) = %q, %v", i, v, ok)
		}
	}
	if st := d2.Stats(); st.Errors != 0 {
		t.Errorf("reopen produced %d errors", st.Errors)
	}
}

// entryPath finds the single entry file for key.
func entryPath(t *testing.T, d *Disk, key string) string {
	t.Helper()
	p := d.path(fileName(key))
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file for %q: %v", key, err)
	}
	return p
}

func TestDiskTruncatedEntryIsMissAndRepaired(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey(7)
	d.Put(key, []byte("full-payload-bytes"))
	p := entryPath(t, d, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, diskHeaderLen - 1, diskHeaderLen, len(raw) - 1} {
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Reopen so the index reflects the damaged file even if a prior
		// iteration's Get dropped it.
		d2, err := OpenDisk(d.dir, 0)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if v, ok := d2.Get(key); ok {
			t.Fatalf("cut=%d: truncated entry served as a hit: %q", cut, v)
		}
		if st := d2.Stats(); st.Errors == 0 {
			t.Errorf("cut=%d: corruption not counted", cut)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("cut=%d: corrupt file not removed (err=%v)", cut, err)
		}
		// The next store of the address repairs the entry.
		d2.Put(key, []byte("full-payload-bytes"))
		if v, ok := d2.Get(key); !ok || string(v) != "full-payload-bytes" {
			t.Fatalf("cut=%d: repaired entry Get = %q, %v", cut, v, ok)
		}
		raw, err = os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskBitFlippedEntryIsMiss(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey(9)
	d.Put(key, []byte("pristine-payload"))
	p := entryPath(t, d, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every region: magic, checksum, length, payload.
	for _, off := range []int{0, len(diskMagic) + 1, len(diskMagic) + 33, diskHeaderLen + 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDisk(d.dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := d2.Get(key); ok {
			t.Fatalf("offset %d: bit-flipped entry served as a hit: %q", off, v)
		}
		d2.Put(key, []byte("pristine-payload"))
		if _, ok := d2.Get(key); !ok {
			t.Fatalf("offset %d: entry not repaired", off)
		}
	}
}

// persistentTier is what the tests shared by both persistent formats
// drive: a tier and the path of an entry's file.
type persistentTier interface {
	Tier
	path(name string) string
}

// persistentFormat is one persistent tier format under test.
type persistentFormat struct {
	name string
	open func(dir string, maxBytes int64) (persistentTier, error)
	// entryName maps a key to its entry file's name.
	entryName func(key string) string
	// tempDirs are shard directories, relative to the root, where an
	// interrupted write can leave a temp file.
	tempDirs []string
}

var persistentFormats = []persistentFormat{
	{
		name:      "disk",
		open:      func(dir string, maxBytes int64) (persistentTier, error) { return OpenDisk(dir, maxBytes) },
		entryName: fileName,
		tempDirs:  []string{"de"},
	},
	{
		name:      "chunked",
		open:      func(dir string, maxBytes int64) (persistentTier, error) { return OpenChunkedDisk(dir, maxBytes) },
		entryName: manifestName,
		tempDirs:  []string{filepath.Join("m", "de"), filepath.Join("c", "de")},
	},
}

// forEachFormat runs test once per persistent format, as a subtest.
func forEachFormat(t *testing.T, test func(t *testing.T, f persistentFormat, open func(dir string, maxBytes int64) persistentTier)) {
	for _, f := range persistentFormats {
		t.Run(f.name, func(t *testing.T) {
			test(t, f, func(dir string, maxBytes int64) persistentTier {
				t.Helper()
				d, err := f.open(dir, maxBytes)
				if err != nil {
					t.Fatal(err)
				}
				return d
			})
		})
	}
}

// entryBytes is the occupancy one entry of val adds to an empty tier.
func entryBytes(t *testing.T, open func(dir string, maxBytes int64) persistentTier, val []byte) int64 {
	t.Helper()
	d := open(t.TempDir(), 0)
	d.Put(diskKey(0), val)
	return d.Stats().Bytes
}

func TestDiskSizeCapEvictsLRU(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f persistentFormat, open func(string, int64) persistentTier) {
		entry := entryBytes(t, open, []byte("payload-00")) // every payload below is 10 bytes
		d := open(t.TempDir(), 4*entry)
		for i := 0; i < 8; i++ {
			d.Put(diskKey(i), []byte(fmt.Sprintf("payload-%02d", i)))
		}
		st := d.Stats()
		if st.Entries != 4 {
			t.Fatalf("entries = %d, want 4 (cap %d bytes)", st.Entries, 4*entry)
		}
		if st.Bytes > 4*entry {
			t.Errorf("bytes = %d exceeds cap %d", st.Bytes, 4*entry)
		}
		if st.Evictions != 4 {
			t.Errorf("evictions = %d, want 4", st.Evictions)
		}
		// The four newest survive; the four oldest are gone from disk too.
		for i := 0; i < 4; i++ {
			if _, ok := d.Get(diskKey(i)); ok {
				t.Errorf("old entry %d survived eviction", i)
			}
			if _, err := os.Stat(d.path(f.entryName(diskKey(i)))); !os.IsNotExist(err) {
				t.Errorf("old entry %d file still on disk", i)
			}
		}
		for i := 4; i < 8; i++ {
			if _, ok := d.Get(diskKey(i)); !ok {
				t.Errorf("new entry %d evicted", i)
			}
		}
	})
}

func TestDiskRecencySurvivesReopen(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f persistentFormat, open func(string, int64) persistentTier) {
		dir := t.TempDir()
		d := open(dir, 0)
		d.Put(diskKey(0), []byte("aaaaaaaaaa"))
		d.Put(diskKey(1), []byte("bbbbbbbbbb"))
		// Backdate both entries, then touch entry 0 via Get so its mtime —
		// the persisted access index — is newest.
		old := time.Now().Add(-time.Hour)
		for i := 0; i < 2; i++ {
			if err := os.Chtimes(d.path(f.entryName(diskKey(i))), old, old); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := d.Get(diskKey(0)); !ok {
			t.Fatal("entry 0 missing")
		}

		// Reopen with a cap that forces one eviction: the stale entry 1 goes.
		d2 := open(dir, entryBytes(t, open, []byte("aaaaaaaaaa")))
		if _, ok := d2.Get(diskKey(0)); !ok {
			t.Error("recently-accessed entry evicted at reopen")
		}
		if _, ok := d2.Get(diskKey(1)); ok {
			t.Error("least-recently-accessed entry survived reopen eviction")
		}
	})
}

func TestDiskOpenSweepsTempFiles(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f persistentFormat, open func(string, int64) persistentTier) {
		dir := t.TempDir()
		var tmps []string
		for _, sub := range f.tempDirs {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			tmp := filepath.Join(dir, sub, "tmp-12345")
			if err := os.WriteFile(tmp, []byte("half a write"), 0o644); err != nil {
				t.Fatal(err)
			}
			tmps = append(tmps, tmp)
		}
		d := open(dir, 0)
		if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Errorf("temp file was indexed: %+v", st)
		}
		for _, tmp := range tmps {
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Errorf("temp file %s not swept at open", tmp)
			}
		}
	})
}

func TestDiskUnsafeKeysAreRehashed(t *testing.T) {
	forEachFormat(t, func(t *testing.T, f persistentFormat, open func(string, int64) persistentTier) {
		dir := t.TempDir()
		d := open(dir, 0)
		keys := []string{"../../etc/passwd", "UPPER", "", strings.Repeat("k", 200), "sp ace"}
		for i, k := range keys {
			val := []byte(fmt.Sprintf("v-%d", i))
			d.Put(k, val)
			got, ok := d.Get(k)
			if !ok || string(got) != string(val) {
				t.Errorf("key %q: Get = %q, %v", k, got, ok)
			}
			name := f.entryName(k)
			if strings.ContainsAny(name, "/\\ ") || len(name) > 128+len(filepath.Ext(name)) {
				t.Errorf("key %q mapped to unsafe file name %q", k, name)
			}
		}
		// Nothing escaped the root: every key is still served after a
		// reopen, which indexes only what lies under it.
		d2 := open(dir, 0)
		for i, k := range keys {
			if got, ok := d2.Get(k); !ok || string(got) != fmt.Sprintf("v-%d", i) {
				t.Errorf("key %q after reopen: Get = %q, %v", k, got, ok)
			}
		}
	})
}

func TestTieredPromotesDiskHitsToMemory(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := Chain(MemoryTier(64), disk)
	computes := 0
	compute := func() ([]byte, error) { computes++; return []byte("computed"), nil }

	// Cold: compute once, write through to both tiers.
	v, hit, err := tiered.GetOrCompute(context.Background(), diskKey(1), compute)
	if err != nil || hit || string(v) != "computed" {
		t.Fatalf("cold = %q, hit=%v, err=%v", v, hit, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d", computes)
	}
	if _, ok := disk.Get(diskKey(1)); !ok {
		t.Fatal("value did not reach the disk tier")
	}

	// A "restart": new memory tier over the same directory.
	disk2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2 := Chain(MemoryTier(64), disk2)
	v, hit, err = t2.GetOrCompute(context.Background(), diskKey(1), compute)
	if err != nil || !hit || string(v) != "computed" {
		t.Fatalf("warm restart = %q, hit=%v, err=%v", v, hit, err)
	}
	if computes != 1 {
		t.Fatalf("warm restart recomputed (computes = %d)", computes)
	}
	// Promoted: the memory tier now serves it without touching disk.
	diskHits := t2.Stats().Tier("disk").Hits
	if v, ok := t2.Get(diskKey(1)); !ok || string(v) != "computed" {
		t.Fatalf("post-promotion Get = %q, %v", v, ok)
	}
	st := t2.Stats()
	if st.Tier("disk").Hits != diskHits {
		t.Error("promoted entry still read from disk")
	}
	if st.Tier("memory").Hits == 0 {
		t.Error("promotion did not land in the memory tier")
	}
}

func TestTieredSingleflightAcrossTiers(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := Chain(MemoryTier(64), disk)
	var computes int
	results := make(chan string, 32)
	block := make(chan struct{})
	for i := 0; i < 32; i++ {
		go func() {
			v, _, err := tiered.GetOrCompute(context.Background(), diskKey(2), func() ([]byte, error) {
				computes++ // data race here would trip -race if the flight leaked
				<-block
				return []byte("once"), nil
			})
			if err != nil {
				results <- err.Error()
				return
			}
			results <- string(v)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the herd pile onto the flight
	close(block)
	for i := 0; i < 32; i++ {
		if got := <-results; got != "once" {
			t.Fatalf("caller got %q", got)
		}
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1 (singleflight across tiers)", computes)
	}
}

func TestTieredComputeErrorNotStored(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := Chain(MemoryTier(64), disk)
	_, _, err = tiered.GetOrCompute(context.Background(), diskKey(3), func() ([]byte, error) {
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if _, ok := tiered.Get(diskKey(3)); ok {
		t.Error("failed compute left an entry in a tier")
	}
	if disk.Stats().Entries != 0 {
		t.Error("failed compute wrote a disk entry")
	}
}

func TestTieredCountsOneLookupOncePerTier(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := Chain(MemoryTier(64), disk)
	// One cold GetOrCompute = exactly one counted miss per tier, even
	// though the flight re-probes the disk before computing.
	if _, _, err := tiered.GetOrCompute(context.Background(), diskKey(5), func() ([]byte, error) {
		return []byte("v"), nil
	}); err != nil {
		t.Fatal(err)
	}
	st := tiered.Stats()
	if m := st.Tier("memory"); m.Hits != 0 || m.Misses != 1 {
		t.Errorf("memory tier after cold lookup: %+v", m)
	}
	if d := st.Tier("disk"); d.Hits != 0 || d.Misses != 1 {
		t.Errorf("disk tier after cold lookup: %+v (flight re-probe must be uncounted)", d)
	}
	// The server's compare path does Get (counted) then Compute (probe
	// uncounted): still one miss per tier per lookup.
	if _, ok := tiered.Get(diskKey(6)); ok {
		t.Fatal("unexpected hit")
	}
	if _, _, err := tiered.Compute(context.Background(), diskKey(6), func() ([]byte, error) {
		return []byte("w"), nil
	}); err != nil {
		t.Fatal(err)
	}
	st = tiered.Stats()
	if d := st.Tier("disk"); d.Misses != 2 {
		t.Errorf("disk misses = %d after two cold lookups, want 2", d.Misses)
	}
	if h := st.Hits(); h != 0 {
		t.Errorf("hits = %d, want 0", h)
	}
}

func TestStatsAggregation(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := Chain(MemoryTier(64), disk)
	if _, ok := tiered.Get("miss-both"); ok {
		t.Fatal("unexpected hit")
	}
	st := tiered.Stats()
	if len(st.Tiers) != 2 || st.Tiers[0].Name != "memory" || st.Tiers[1].Name != "disk" {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	if st.Misses() != 1 {
		t.Errorf("full misses = %d, want 1", st.Misses())
	}
	if st.Hits() != 0 {
		t.Errorf("hits = %d, want 0", st.Hits())
	}
}

// TestDropStaleOnlyDropsTheGenerationRead: a read that fails counts an
// error and drops the entry only if the entry is still the generation the
// read looked up. If a Put replaced it, or eviction removed it (and with
// it the files the read wanted) after the lookup, the read is a plain
// miss: no error, and the fresh entry stays.
func TestDropStaleOnlyDropsTheGenerationRead(t *testing.T) {
	var tier diskTier[struct{}]
	tier.open(t.TempDir(), "e", ".e", 0, nil)
	install := func() {
		tier.mu.Lock()
		defer tier.mu.Unlock()
		tier.installLocked("a.e", 1, struct{}{})
	}
	check := func(step string, entries int, errors int64) {
		t.Helper()
		if st := tier.stats(func(int, int64) int64 { return 0 }); st.Entries != entries || st.Errors != errors {
			t.Errorf("%s: %d entries and %d errors, want %d and %d", step, st.Entries, st.Errors, entries, errors)
		}
	}
	install()
	gen, _, _ := tier.lookup("a.e")
	install() // replaced after the read's lookup
	tier.dropStale("a.e", gen, false)
	check("replaced", 1, 0)

	gen, _, _ = tier.lookup("a.e")
	tier.mu.Lock()
	tier.removeLocked(tier.idx["a.e"], false) // evicted after the lookup
	tier.mu.Unlock()
	tier.dropStale("a.e", gen, false)
	check("evicted", 0, 0)

	install()
	gen, _, _ = tier.lookup("a.e")
	tier.dropStale("a.e", gen, false) // damaged
	check("damaged", 0, 1)
}
