package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"cdcs/internal/curves"
)

// VCKind distinguishes the virtual-cache types CDCS creates (§III): one
// thread-private VC per thread and one shared VC per process. (The paper also
// defines a global VC for data shared across processes; workloads in the
// evaluation barely use it, so mixes here omit it and we document that in
// DESIGN.md.)
type VCKind int

const (
	// ThreadPrivate VCs hold data accessed by a single thread.
	ThreadPrivate VCKind = iota
	// ProcessShared VCs hold data accessed by multiple threads of a process.
	ProcessShared
)

// String returns the kind name.
func (k VCKind) String() string {
	if k == ThreadPrivate {
		return "private"
	}
	return "shared"
}

// VC is a virtual cache: the unit of capacity allocation and data placement.
type VC struct {
	// ID indexes the VC within its Mix.
	ID int
	// Proc is the owning process index within the Mix.
	Proc int
	// Kind is the VC type.
	Kind VCKind
	// MissRatio maps allocated lines to miss ratio for accesses to this VC.
	MissRatio curves.Curve
	// Threads lists the accessor thread ids in ascending order; Rates[i] is
	// Threads[i]'s APKI into this VC. Both are read-only once built.
	Threads []int
	Rates   []float64
}

// TotalAPKI sums access intensity over all accessor threads, in thread-id
// order, so the floating-point sum is reproducible run to run.
func (v *VC) TotalAPKI() float64 {
	sum := 0.0
	for _, r := range v.Rates {
		sum += r
	}
	return sum
}

// Thread is a schedulable thread with its access split across VCs.
type Thread struct {
	// ID indexes the thread within its Mix.
	ID int
	// Proc is the owning process index.
	Proc int
	// Name is "bench#k[.t]" for diagnostics.
	Name string
	// CPIBase and MLP come from the owning profile.
	CPIBase float64
	MLP     float64
	// VCs lists the VC ids the thread accesses in ascending order; Rates[i]
	// is its APKI into VCs[i]. Both are read-only once built.
	VCs   []int
	Rates []float64
}

// TotalAPKI sums the thread's access intensity over all VCs, in VC-id order,
// so the floating-point sum is reproducible run to run.
func (t *Thread) TotalAPKI() float64 {
	sum := 0.0
	for _, r := range t.Rates {
		sum += r
	}
	return sum
}

// Process groups the threads of one application instance.
type Process struct {
	// Name is "bench#k".
	Name string
	// Bench is the profile name.
	Bench string
	// Multithreaded reports whether this instance came from an MTProfile.
	Multithreaded bool
	// ThreadIDs lists member threads.
	ThreadIDs []int
	// VCIDs lists the VCs owned by this process.
	VCIDs []int
}

// Mix is a complete workload: processes expanded into threads and VCs, joined
// by the access graph (VC.Threads/Rates and Thread.VCs/Rates). Build with
// NewMix and the Add methods, which append every adjacency list already in
// ascending-id order; a built Mix is read-only and safe for concurrent
// readers.
type Mix struct {
	Procs   []Process
	Threads []Thread
	VCs     []VC

	counts map[string]int // instances per bench name, for naming
}

// NewMix returns an empty mix.
func NewMix() *Mix {
	return &Mix{counts: map[string]int{}}
}

// instanceName returns "bench#k" for the next instance of the named profile.
func (m *Mix) instanceName(bench string) string {
	m.counts[bench]++
	return bench + "#" + strconv.Itoa(m.counts[bench])
}

// AddST appends a single-threaded app instance: one thread, one private VC.
// The thread and its VC are each other's only neighbour, so the two edge
// lists share one rate slice, and the process reuses the id slices.
func (m *Mix) AddST(p *Profile) *Mix {
	name := m.instanceName(p.Name)
	proc := len(m.Procs)
	tids := []int{len(m.Threads)}
	vids := []int{len(m.VCs)}
	rates := []float64{p.APKI}

	m.VCs = append(m.VCs, VC{
		ID: vids[0], Proc: proc, Kind: ThreadPrivate,
		MissRatio: p.MissRatio,
		Threads:   tids, Rates: rates,
	})
	m.Threads = append(m.Threads, Thread{
		ID: tids[0], Proc: proc, Name: name,
		CPIBase: p.CPIBase, MLP: p.MLP,
		VCs: vids, Rates: rates,
	})
	m.Procs = append(m.Procs, Process{
		Name: name, Bench: p.Name,
		ThreadIDs: tids, VCIDs: vids,
	})
	return m
}

// AddMT appends a multithreaded app instance: p.Threads threads, one private
// VC per thread, and one shared VC accessed by all of them. The shared VC is
// appended first, so every thread's list is [shared, private], and threads
// join the shared VC's list in id order.
func (m *Mix) AddMT(p *MTProfile) *Mix {
	name := m.instanceName(p.Name)
	proc := len(m.Procs)
	n := p.Threads
	shID := len(m.VCs)
	procRec := Process{
		Name: name, Bench: p.Name, Multithreaded: true,
		ThreadIDs: make([]int, n), VCIDs: make([]int, n+1),
	}
	procRec.VCIDs[0] = shID
	// Every thread's list holds the same two rates, [shared, private], and
	// every private VC's the private one, so they all share one rate pair.
	// Thread i's VC pair and private VC i's accessor are carved out of flat
	// arrays.
	rates := []float64{p.APKI * p.SharedFrac, p.APKI * (1 - p.SharedFrac)}
	shRates := make([]float64, n)
	thVCs := make([]int, 2*n)
	m.VCs = append(m.VCs, VC{
		ID: shID, Proc: proc, Kind: ProcessShared,
		MissRatio: p.SharedRatio,
		Threads:   procRec.ThreadIDs, Rates: shRates,
	})
	for i := 0; i < n; i++ {
		tid := len(m.Threads)
		vid := len(m.VCs)
		procRec.ThreadIDs[i] = tid
		procRec.VCIDs[i+1] = vid
		shRates[i] = rates[0]
		thVCs[2*i], thVCs[2*i+1] = shID, vid
		m.VCs = append(m.VCs, VC{
			ID: vid, Proc: proc, Kind: ThreadPrivate,
			MissRatio: p.PrivRatio,
			Threads:   procRec.ThreadIDs[i : i+1 : i+1], Rates: rates[1:2:2],
		})
		m.Threads = append(m.Threads, Thread{
			ID: tid, Proc: proc, Name: name + "." + strconv.Itoa(i),
			CPIBase: p.CPIBase, MLP: p.MLP,
			VCs: thVCs[2*i : 2*i+2 : 2*i+2], Rates: rates,
		})
	}
	m.Procs = append(m.Procs, procRec)
	return m
}

// Validate checks internal consistency; it returns an error describing the
// first violation found. Every adjacency list must have as many rates as
// ids and be strictly ascending; every edge must have a reverse edge with
// the bit-equal rate; and the thread and VC sides must count the same edges.
func (m *Mix) Validate() error {
	vcEdges := 0
	for vi := range m.VCs {
		vc := &m.VCs[vi]
		if vc.ID != vi {
			return fmt.Errorf("VC %d has ID %d", vi, vc.ID)
		}
		if len(vc.Threads) != len(vc.Rates) {
			return fmt.Errorf("VC %d lists %d accessors but %d rates", vi, len(vc.Threads), len(vc.Rates))
		}
		for k, tid := range vc.Threads {
			if tid < 0 || tid >= len(m.Threads) {
				return fmt.Errorf("VC %d accessor thread %d out of range", vi, tid)
			}
			if k > 0 && tid <= vc.Threads[k-1] {
				return fmt.Errorf("VC %d accessor list not ascending at %d", vi, k)
			}
		}
		vcEdges += len(vc.Threads)
	}
	// With both sides ascending, a reverse edge for every thread edge plus
	// equal edge counts means the VC side has no edge the threads lack.
	threadEdges := 0
	for ti := range m.Threads {
		th := &m.Threads[ti]
		if th.ID != ti {
			return fmt.Errorf("thread %d has ID %d", ti, th.ID)
		}
		if len(th.VCs) != len(th.Rates) {
			return fmt.Errorf("thread %q lists %d VCs but %d rates", th.Name, len(th.VCs), len(th.Rates))
		}
		if len(th.VCs) == 0 {
			return fmt.Errorf("thread %q accesses no VCs", th.Name)
		}
		for k, vid := range th.VCs {
			if vid < 0 || vid >= len(m.VCs) {
				return fmt.Errorf("thread %q references VC %d out of range", th.Name, vid)
			}
			if k > 0 && vid <= th.VCs[k-1] {
				return fmt.Errorf("thread %q VC list not ascending at %d", th.Name, k)
			}
			vc := &m.VCs[vid]
			j, ok := slices.BinarySearch(vc.Threads, th.ID)
			if !ok {
				return fmt.Errorf("thread %q -> VC %d missing reverse edge", th.Name, vid)
			}
			if math.Float64bits(vc.Rates[j]) != math.Float64bits(th.Rates[k]) {
				return fmt.Errorf("thread %q -> VC %d rate mismatch", th.Name, vid)
			}
		}
		threadEdges += len(th.VCs)
	}
	if threadEdges != vcEdges {
		return fmt.Errorf("threads list %d edges, VCs list %d", threadEdges, vcEdges)
	}
	return nil
}

// RandomST builds a mix of n single-threaded apps drawn uniformly (with
// replacement) from profiles, using rng for reproducibility.
func RandomST(rng *rand.Rand, profiles []*Profile, n int) *Mix {
	m := NewMix()
	for i := 0; i < n; i++ {
		m.AddST(profiles[rng.Intn(len(profiles))])
	}
	return m
}

// RandomMT builds a mix of n multithreaded apps drawn uniformly (with
// replacement) from profiles.
func RandomMT(rng *rand.Rand, profiles []*MTProfile, n int) *Mix {
	m := NewMix()
	for i := 0; i < n; i++ {
		m.AddMT(profiles[rng.Intn(len(profiles))])
	}
	return m
}

// CaseStudy returns the §II-B mix: 6×omnet, 14×milc, 2×ilbdc (8 threads
// each) — 36 threads for the 36-tile CMP.
func CaseStudy() *Mix {
	cpu := SPECCPU()
	omp := SPECOMP()
	m := NewMix()
	for i := 0; i < 6; i++ {
		m.AddST(ByName(cpu, "omnet"))
	}
	for i := 0; i < 14; i++ {
		m.AddST(ByName(cpu, "milc"))
	}
	for i := 0; i < 2; i++ {
		m.AddMT(MTByName(omp, "ilbdc"))
	}
	return m
}

// Fig16CaseStudy returns the §VI-B under-committed MT mix: mgrid (private-
// heavy, intensive) + md + ilbdc + nab (shared-heavy), 8 threads each.
func Fig16CaseStudy() *Mix {
	omp := SPECOMP()
	m := NewMix()
	for _, name := range []string{"mgrid", "md", "ilbdc", "nab"} {
		m.AddMT(MTByName(omp, name))
	}
	return m
}

// Seal does nothing: Add methods build the access graph in its final
// sorted form. It remains only for bench/decompose.go, which still calls it.
func (m *Mix) Seal() {}
