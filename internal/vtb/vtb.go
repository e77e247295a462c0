// Package vtb implements the virtual-cache translation buffer (§III, Fig. 3).
//
// A VC descriptor is an array of N buckets, each naming a bank and a bank
// partition. An address is hashed into a bucket, so a VC spreads its accesses
// across its bank partitions in proportion to their bucket counts — which the
// OS sets proportional to allocated capacity, making the ganged partitions
// behave like one cache of their aggregate size. Each VTB entry holds the
// current descriptor plus a shadow descriptor used during incremental
// reconfigurations (§IV-H): while the shadow is active, lookups also return
// the line's previous location so misses can be forwarded to the old bank
// (demand moves).
package vtb

import (
	"fmt"
	"sort"

	"cdcs/internal/cachesim"
)

// DefaultBuckets is the descriptor size used in the paper (N=64).
const DefaultBuckets = 64

// Loc names a bank and a partition within that bank.
type Loc struct {
	Bank int
	Part int
}

// Descriptor maps hash buckets to locations.
type Descriptor struct {
	buckets []Loc
}

// IsZero reports whether the descriptor is uninitialized.
func (d Descriptor) IsZero() bool { return len(d.buckets) == 0 }

// BuildDescriptor constructs an N-bucket descriptor from a bank→lines
// allocation, assigning buckets with the largest-remainder method so bucket
// counts are proportional to capacity (the paper's example: 1MB + 3MB
// partitions get 16 + 48 of 64 buckets). parts maps bank to the partition id
// the VC owns there. It returns an error if the allocation is empty or
// negative, or if there are more banks than buckets.
func BuildDescriptor(n int, alloc map[int]float64, parts map[int]int) (Descriptor, error) {
	if n <= 0 {
		return Descriptor{}, fmt.Errorf("vtb: descriptor needs positive bucket count, got %d", n)
	}
	type share struct {
		bank  int
		lines float64
	}
	shares := make([]share, 0, len(alloc))
	total := 0.0
	for b, lines := range alloc {
		if lines < 0 {
			return Descriptor{}, fmt.Errorf("vtb: negative allocation %g in bank %d", lines, b)
		}
		if lines > 0 {
			shares = append(shares, share{b, lines})
			total += lines
		}
	}
	if len(shares) == 0 || total <= 0 {
		return Descriptor{}, fmt.Errorf("vtb: empty allocation")
	}
	if len(shares) > n {
		// Keep the n largest shares; a VC spread over more banks than
		// buckets cannot be represented (the OS avoids this by placing VCs
		// compactly).
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].lines != shares[j].lines {
				return shares[i].lines > shares[j].lines
			}
			return shares[i].bank < shares[j].bank
		})
		shares = shares[:n]
		total = 0
		for _, s := range shares {
			total += s.lines
		}
	}
	// Deterministic order for reproducible layouts.
	sort.Slice(shares, func(i, j int) bool { return shares[i].bank < shares[j].bank })

	// Largest-remainder apportionment.
	type rem struct {
		idx  int
		frac float64
	}
	counts := make([]int, len(shares))
	rems := make([]rem, len(shares))
	used := 0
	for i, s := range shares {
		exact := float64(n) * s.lines / total
		counts[i] = int(exact)
		rems[i] = rem{i, exact - float64(counts[i])}
		used += counts[i]
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for k := 0; used < n; k++ {
		counts[rems[k%len(rems)].idx]++
		used++
	}

	buckets := make([]Loc, 0, n)
	for i, s := range shares {
		p := parts[s.bank]
		for j := 0; j < counts[i]; j++ {
			buckets = append(buckets, Loc{Bank: s.bank, Part: p})
		}
	}
	return Descriptor{buckets: buckets}, nil
}

// hash64 is splitmix64 (same mixing as internal/monitor).
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Lookup hashes an address into its bucket's location.
func (d Descriptor) Lookup(addr cachesim.Addr) Loc {
	return d.buckets[hash64(uint64(addr))%uint64(len(d.buckets))]
}

// Fractions returns the fraction of accesses each bank receives (bucket
// share). This is the α_tb spreading the performance model uses.
func (d Descriptor) Fractions() map[int]float64 {
	out := map[int]float64{}
	for _, l := range d.buckets {
		out[l.Bank] += 1.0 / float64(len(d.buckets))
	}
	return out
}

// Entry is one VTB entry: a VC id tag plus current and shadow descriptors.
type Entry struct {
	VC      int
	Current Descriptor
	Shadow  Descriptor
	// ShadowActive marks an in-flight incremental reconfiguration.
	ShadowActive bool
}

// VTB is the per-tile translation buffer: a small associative table (3
// entries in the paper: thread, process and global VC).
type VTB struct {
	entries []Entry
	cap     int
}

// New returns a VTB with capacity for n entries.
func New(n int) *VTB {
	if n <= 0 {
		panic(fmt.Sprintf("vtb: invalid capacity %d", n))
	}
	return &VTB{cap: n}
}

// Install sets the descriptor for a VC. If the VC already has an entry, the
// previous descriptor becomes the shadow and the shadow is marked active
// (the §IV-H reconfiguration handshake); otherwise a fresh entry is added.
// Install returns an error when the table is full.
func (v *VTB) Install(vc int, d Descriptor) error {
	if d.IsZero() {
		return fmt.Errorf("vtb: installing zero descriptor for VC %d", vc)
	}
	for i := range v.entries {
		if v.entries[i].VC == vc {
			v.entries[i].Shadow = v.entries[i].Current
			v.entries[i].ShadowActive = true
			v.entries[i].Current = d
			return nil
		}
	}
	if len(v.entries) >= v.cap {
		return fmt.Errorf("vtb: table full (%d entries) installing VC %d", v.cap, vc)
	}
	v.entries = append(v.entries, Entry{VC: vc, Current: d})
	return nil
}

// Lookup translates an address for a VC. It returns the current location,
// and — while a reconfiguration is in flight — the previous location and
// whether the line's home changed (a moved line must check its old bank on
// a miss). A lookup for an unknown VC is the hardware's "exception on miss":
// it returns an error.
func (v *VTB) Lookup(vc int, addr cachesim.Addr) (cur, old Loc, moved bool, err error) {
	for i := range v.entries {
		e := &v.entries[i]
		if e.VC != vc {
			continue
		}
		cur = e.Current.Lookup(addr)
		if e.ShadowActive {
			old = e.Shadow.Lookup(addr)
			return cur, old, old != cur, nil
		}
		return cur, cur, false, nil
	}
	return Loc{}, Loc{}, false, fmt.Errorf("vtb: miss for VC %d", vc)
}

// ShadowActive reports whether any entry still has an active shadow.
func (v *VTB) ShadowActive() bool {
	for i := range v.entries {
		if v.entries[i].ShadowActive {
			return true
		}
	}
	return false
}

// ClearShadows ends the reconfiguration epoch: cores stop consulting shadow
// descriptors once background invalidation has walked the arrays.
func (v *VTB) ClearShadows() {
	for i := range v.entries {
		v.entries[i].ShadowActive = false
		v.entries[i].Shadow = Descriptor{}
	}
}
