package vtb

import (
	"math"
	"testing"

	"cdcs/internal/cachesim"
)

func TestBuildDescriptorProportional(t *testing.T) {
	// The paper's example: partitions of 1MB and 3MB get 16 and 48 of 64
	// buckets, so the 3MB partition receives 3x the accesses.
	d, err := BuildDescriptor(64,
		map[int]float64{3: 1 * 16384, 9: 3 * 16384},
		map[int]int{3: 5, 9: 2})
	if err != nil {
		t.Fatal(err)
	}
	fr := d.Fractions()
	if !approx(fr[3], 0.25, 1e-9) || !approx(fr[9], 0.75, 1e-9) {
		t.Errorf("fractions = %v, want 0.25/0.75", fr)
	}
	// Partition ids preserved.
	counts := map[Loc]int{}
	for i := 0; i < len(d.buckets); i++ {
		counts[d.buckets[i]]++
	}
	if counts[Loc{3, 5}] != 16 || counts[Loc{9, 2}] != 48 {
		t.Errorf("bucket counts = %v", counts)
	}
}

func TestBuildDescriptorLargestRemainder(t *testing.T) {
	// Three equal shares across 64 buckets: 22+21+21.
	d, err := BuildDescriptor(64,
		map[int]float64{0: 1, 1: 1, 2: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	per := map[int]int{}
	for _, l := range d.buckets {
		per[l.Bank]++
	}
	sum := 0
	for b, n := range per {
		if n < 21 || n > 22 {
			t.Errorf("bank %d has %d buckets", b, n)
		}
		sum += n
	}
	if sum != 64 {
		t.Errorf("bucket total %d, want 64", sum)
	}
}

func TestBuildDescriptorErrors(t *testing.T) {
	if _, err := BuildDescriptor(0, map[int]float64{0: 1}, nil); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := BuildDescriptor(8, map[int]float64{}, nil); err == nil {
		t.Error("empty allocation accepted")
	}
	if _, err := BuildDescriptor(8, map[int]float64{0: -1}, nil); err == nil {
		t.Error("negative allocation accepted")
	}
	if _, err := BuildDescriptor(8, map[int]float64{0: 0}, nil); err == nil {
		t.Error("all-zero allocation accepted")
	}
}

func TestBuildDescriptorMoreBanksThanBuckets(t *testing.T) {
	// 10 banks, 4 buckets: keep the 4 largest shares.
	alloc := map[int]float64{}
	for b := 0; b < 10; b++ {
		alloc[b] = float64(b + 1)
	}
	d, err := BuildDescriptor(4, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range d.buckets {
		if l.Bank < 6 {
			t.Errorf("small-share bank %d kept in truncated descriptor", l.Bank)
		}
	}
}

func TestLookupDistributionMatchesFractions(t *testing.T) {
	d, err := BuildDescriptor(64,
		map[int]float64{1: 1, 2: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[d.Lookup(cachesim.Addr(i)).Bank]++
	}
	f1 := float64(counts[1]) / n
	if f1 < 0.22 || f1 > 0.28 {
		t.Errorf("bank 1 observed fraction %.3f, want ~0.25", f1)
	}
}

func TestLookupDeterministic(t *testing.T) {
	d, _ := BuildDescriptor(16, map[int]float64{0: 1, 1: 1}, nil)
	for i := 0; i < 100; i++ {
		a := d.Lookup(cachesim.Addr(i))
		b := d.Lookup(cachesim.Addr(i))
		if a != b {
			t.Fatalf("lookup of %d not deterministic", i)
		}
	}
}

func TestVTBInstallAndLookup(t *testing.T) {
	v := New(3)
	d1, _ := BuildDescriptor(16, map[int]float64{4: 1}, map[int]int{4: 7})
	if err := v.Install(11, d1); err != nil {
		t.Fatal(err)
	}
	cur, _, moved, err := v.Lookup(11, 0xABC)
	if err != nil {
		t.Fatal(err)
	}
	if cur != (Loc{4, 7}) {
		t.Errorf("lookup = %+v, want bank 4 part 7", cur)
	}
	if moved {
		t.Error("fresh install reports moved lines")
	}
}

func TestVTBExceptionOnMiss(t *testing.T) {
	v := New(3)
	if _, _, _, err := v.Lookup(99, 1); err == nil {
		t.Error("lookup of unknown VC did not error")
	}
}

func TestVTBCapacity(t *testing.T) {
	v := New(2)
	d, _ := BuildDescriptor(8, map[int]float64{0: 1}, nil)
	if err := v.Install(1, d); err != nil {
		t.Fatal(err)
	}
	if err := v.Install(2, d); err != nil {
		t.Fatal(err)
	}
	if err := v.Install(3, d); err == nil {
		t.Error("overfull VTB accepted entry")
	}
	if len(v.entries) != 2 {
		t.Errorf("entries=%d", len(v.entries))
	}
}

func TestVTBShadowOnReinstall(t *testing.T) {
	v := New(3)
	dOld, _ := BuildDescriptor(16, map[int]float64{1: 1}, nil)
	dNew, _ := BuildDescriptor(16, map[int]float64{2: 1}, nil)
	if err := v.Install(5, dOld); err != nil {
		t.Fatal(err)
	}
	if v.ShadowActive() {
		t.Error("shadow active after first install")
	}
	if err := v.Install(5, dNew); err != nil {
		t.Fatal(err)
	}
	if !v.ShadowActive() {
		t.Error("shadow inactive after reinstall")
	}
	cur, old, moved, err := v.Lookup(5, 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Bank != 2 || old.Bank != 1 || !moved {
		t.Errorf("shadow lookup: cur=%+v old=%+v moved=%v", cur, old, moved)
	}
	v.ClearShadows()
	if v.ShadowActive() {
		t.Error("shadow still active after ClearShadows")
	}
	_, old2, moved2, _ := v.Lookup(5, 0x123)
	if moved2 || old2 != cur {
		t.Error("cleared shadow still reports moves")
	}
}

func TestVTBShadowUnmovedLines(t *testing.T) {
	// Reconfiguration that keeps part of the mapping: addresses whose bucket
	// still maps to the same bank are not "moved".
	v := New(3)
	dOld, _ := BuildDescriptor(64, map[int]float64{1: 1, 2: 1}, nil)
	dNew, _ := BuildDescriptor(64, map[int]float64{1: 1, 3: 1}, nil)
	v.Install(7, dOld)
	v.Install(7, dNew)
	movedCount, total := 0, 5000
	for i := 0; i < total; i++ {
		_, _, moved, err := v.Lookup(7, cachesim.Addr(i))
		if err != nil {
			t.Fatal(err)
		}
		if moved {
			movedCount++
		}
	}
	// Bank 1's buckets are identical in both descriptors (deterministic
	// construction), so only bank-2 buckets moved: about half.
	frac := float64(movedCount) / float64(total)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("moved fraction %.3f, want ~0.5", frac)
	}
}

func TestInstallZeroDescriptor(t *testing.T) {
	v := New(1)
	if err := v.Install(1, Descriptor{}); err == nil {
		t.Error("zero descriptor accepted")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func approx(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}
