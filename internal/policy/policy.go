// Package policy implements the NUCA organizations the paper compares:
// S-NUCA (static spreading), R-NUCA (class-based placement), Jigsaw
// (partitioned NUCA with miss-curve allocation and greedy placement, under
// clustered or random thread scheduling), and CDCS itself (via
// internal/core). Each policy turns a workload mix into per-thread
// perfmodel inputs: effective VC sizes and miss ratios, and access-weighted
// hop distances.
package policy

import (
	"fmt"
	"math/rand"
	"slices"

	"cdcs/internal/alloc"
	"cdcs/internal/core"
	"cdcs/internal/mesh"
	"cdcs/internal/perfmodel"
	"cdcs/internal/place"
	"cdcs/internal/workload"
)

// Kind selects the NUCA organization.
type Kind int

const (
	// SNUCA spreads every line across all banks with a fixed hash.
	SNUCA Kind = iota
	// RNUCA places private data locally and spreads shared data chip-wide.
	RNUCA
	// Jigsaw partitions banks, allocates from miss curves, places greedily.
	Jigsaw
	// CDCS co-schedules threads and data (internal/core).
	CDCS
)

// ThreadSched selects how threads land on cores for schemes that do not
// place threads themselves.
type ThreadSched int

const (
	// Clustered packs threads in index order (Jigsaw+C).
	Clustered ThreadSched = iota
	// Random places threads on a random permutation of cores (Jigsaw+R).
	Random
	// Placed lets the policy place threads (CDCS only).
	Placed
)

// Scheme is a complete policy selection.
type Scheme struct {
	Kind    Kind
	Threads ThreadSched
	// Feats applies to CDCS (factor analysis); ignored otherwise.
	Feats core.Features
	// BankGranular applies to CDCS (§VI-C coarse allocation).
	BankGranular bool
	// Label overrides the derived name when non-empty.
	Label string
}

// Standard schemes from the evaluation.
var (
	SchemeSNUCA   = Scheme{Kind: SNUCA, Threads: Random, Label: "S-NUCA"}
	SchemeRNUCA   = Scheme{Kind: RNUCA, Threads: Random, Label: "R-NUCA"}
	SchemeJigsawC = Scheme{Kind: Jigsaw, Threads: Clustered, Label: "Jigsaw+C"}
	SchemeJigsawR = Scheme{Kind: Jigsaw, Threads: Random, Label: "Jigsaw+R"}
	SchemeCDCS    = Scheme{Kind: CDCS, Threads: Placed, Feats: core.AllCDCS(), Label: "CDCS"}
)

// Name returns a printable scheme name.
func (s Scheme) Name() string {
	if s.Label != "" {
		return s.Label
	}
	switch s.Kind {
	case SNUCA:
		return "S-NUCA"
	case RNUCA:
		return "R-NUCA"
	case Jigsaw:
		if s.Threads == Clustered {
			return "Jigsaw+C"
		}
		return "Jigsaw+R"
	case CDCS:
		return "CDCS"
	}
	return fmt.Sprintf("Scheme(%d)", int(s.Kind))
}

// Env bundles the modeled machine.
type Env struct {
	Chip   place.Chip
	Model  alloc.LatencyModel
	Params perfmodel.Params
}

// DefaultEnv returns the paper's 64-tile CMP (Table 2): 8×8 mesh, 512KB
// banks, with the latency constants shared between the allocator and the
// performance model.
func DefaultEnv() Env {
	p := perfmodel.DefaultParams()
	return Env{
		Chip: place.Chip{Topo: mesh.New(8, 8), BankLines: 8192},
		Model: alloc.LatencyModel{
			MemLatency: p.MemZeroLoad + p.MemBurst,
			HopLatency: p.HopLatency,
			RoundTrip:  p.RoundTrip,
		},
		Params: p,
	}
}

// ScaledEnv returns an env with a w×h mesh (e.g. the §II-B 6×6 chip).
func ScaledEnv(w, h int) Env {
	e := DefaultEnv()
	e.Chip = place.Chip{Topo: mesh.New(w, h), BankLines: 8192}
	return e
}

// Sched is a policy's output: everything the performance model and the
// experiment harness need.
type Sched struct {
	// Name echoes the scheme.
	Name string
	// ThreadCore maps thread to core tile.
	ThreadCore []mesh.Tile
	// VCSizes is each VC's effective capacity in lines.
	VCSizes []float64
	// VCRatios is each VC's effective miss ratio at that capacity.
	VCRatios []float64
	// Inputs feeds perfmodel.Evaluate, parallel to mix.Threads.
	Inputs []perfmodel.ThreadInput
	// Core carries the reconfiguration detail for partitioned schemes
	// (timings, trades); nil otherwise.
	Core *core.Result
}

// Arena holds reusable scratch for schedule construction: the placement
// arena plus the policy layer's own buffers (thread orderings, perfmodel
// inputs). Reusing one arena across BuildWith calls makes the per-cell
// schedule hot path allocation-free in steady state. Not safe for concurrent
// use; a Sched built with a non-nil arena borrows its memory and stays valid
// only until the arena's next BuildWith.
type Arena struct {
	core    core.Arena
	order   []int
	threads []mesh.Tile
	inputs  []perfmodel.ThreadInput
	acc     []perfmodel.VCAccess
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// grow returns a zeroed slice of length n, reusing buf's capacity.
func grow[T any](buf *[]T, n int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// BuildWith computes the schedule for a scheme on a mix. rng drives random
// thread placement only (seed it for reproducibility); deterministic schemes
// ignore it. Pass nil for an independent schedule, or a pooled arena to
// build allocation-free in steady state (the returned Sched then borrows the
// arena — extract what you need before the arena's next use).
func BuildWith(env Env, s Scheme, mix *workload.Mix, rng *rand.Rand, ar *Arena) (Sched, error) {
	if ar == nil {
		ar = NewArena()
	}
	if len(mix.Threads) > env.Chip.Banks() {
		return Sched{}, fmt.Errorf("policy: %d threads exceed %d cores", len(mix.Threads), env.Chip.Banks())
	}
	threads, err := scheduleThreads(ar, env, s, mix, rng)
	if err != nil {
		return Sched{}, err
	}
	switch s.Kind {
	case SNUCA:
		return buildSNUCA(ar, env, mix, threads)
	case RNUCA:
		return buildRNUCA(ar, env, mix, threads)
	case Jigsaw:
		return buildPartitioned(ar, env, s, mix, threads)
	case CDCS:
		return buildPartitioned(ar, env, s, mix, threads)
	default:
		return Sched{}, fmt.Errorf("policy: unknown kind %d", s.Kind)
	}
}

// scheduleThreads produces the fixed thread placement for non-placing
// schemes (CDCS ignores it unless thread placement is disabled).
func scheduleThreads(ar *Arena, env Env, s Scheme, mix *workload.Mix, rng *rand.Rand) ([]mesh.Tile, error) {
	n := len(mix.Threads)
	switch s.Threads {
	case Clustered, Placed:
		return clusteredByBench(ar, env, mix), nil
	case Random:
		if rng == nil {
			return nil, fmt.Errorf("policy: random thread scheduling needs an rng")
		}
		return place.RandomThreads(env.Chip, n, rng.Perm(env.Chip.Banks())), nil
	}
	return nil, fmt.Errorf("policy: unknown thread scheduler %d", s.Threads)
}

// clusteredByBench implements the paper's clustered scheduler: threads are
// packed onto consecutive tiles grouped by application type, so instances of
// the same benchmark sit next to each other (§II-B: "applications are
// grouped by type", e.g. the six copies of omnet in the top-left corner).
// This is what creates the pathological capacity contention of Fig. 1b.
func clusteredByBench(ar *Arena, env Env, mix *workload.Mix) []mesh.Tile {
	order := grow(&ar.order, len(mix.Threads))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ta, tb := &mix.Threads[a], &mix.Threads[b]
		ba, bb := mix.Procs[ta.Proc].Bench, mix.Procs[tb.Proc].Bench
		if ba != bb {
			if ba < bb {
				return -1
			}
			return 1
		}
		if ta.Proc != tb.Proc {
			return ta.Proc - tb.Proc
		}
		return ta.ID - tb.ID
	})
	out := grow(&ar.threads, len(mix.Threads))
	for pos, tid := range order {
		out[tid] = mesh.Tile(pos % env.Chip.Banks())
	}
	return out
}

// buildPartitioned runs the Jigsaw/CDCS reconfiguration pipeline and derives
// perfmodel inputs from the resulting assignment.
func buildPartitioned(ar *Arena, env Env, s Scheme, mix *workload.Mix, fixed []mesh.Tile) (Sched, error) {
	feats := s.Feats
	if s.Kind == Jigsaw {
		feats = core.Features{} // miss-curve allocation, fixed threads, greedy
	}
	cfg := core.Config{
		Chip:         env.Chip,
		Model:        env.Model,
		BankGranular: s.BankGranular,
		Feats:        feats,
	}
	res, err := core.ReconfigureWith(cfg, mix, fixed, &ar.core)
	if err != nil {
		return Sched{}, err
	}
	sched := Sched{
		Name:       s.Name(),
		ThreadCore: res.ThreadCore,
		VCSizes:    res.VCSizes,
		VCRatios:   make([]float64, len(mix.VCs)),
		Core:       &res,
	}
	for v := range mix.VCs {
		sched.VCRatios[v] = mix.VCs[v].MissRatio.Eval(res.VCSizes[v])
	}
	sched.Inputs = buildInputs(ar, env, mix, sched.VCRatios, func(t int, v int) (float64, float64) {
		return assignmentHops(env, &res.Assignment[v], res.VCSizes[v], sched.ThreadCore[t])
	})
	return sched, nil
}

// assignmentHops returns (access hops, memory hops) for a thread accessing a
// VC spread per the assignment. Zero-size VCs behave as misses served
// through the local bank (the line is still looked up somewhere: S-NUCA-like
// hashing over the VC's notional home, which CDCS maps to the nearest bank).
func assignmentHops(env Env, alloc *place.BankAlloc, size float64, core mesh.Tile) (float64, float64) {
	if size <= 0 || alloc.Len() == 0 {
		// No capacity: the access checks its (local) home bank and misses.
		return 0, env.Chip.Topo.AvgMemDistance(core)
	}
	var hops, memHops float64
	for i := 0; i < alloc.Len(); i++ {
		b, l := alloc.At(i)
		frac := l / size
		hops += frac * float64(env.Chip.Topo.Distance(core, b))
		memHops += frac * env.Chip.Topo.AvgMemDistance(b)
	}
	return hops, memHops
}

// buildInputs assembles perfmodel threads from per-(thread,VC) hop
// functions. ratios are per-VC effective miss ratios. The inputs and their
// access lists are arena-backed.
func buildInputs(ar *Arena, env Env, mix *workload.Mix, ratios []float64, hops func(t, v int) (float64, float64)) []perfmodel.ThreadInput {
	inputs := grow(&ar.inputs, len(mix.Threads))
	total := 0
	for t := range mix.Threads {
		total += len(mix.Threads[t].VCs)
	}
	if cap(ar.acc) < total {
		ar.acc = make([]perfmodel.VCAccess, 0, total)
	}
	acc := ar.acc[:0]
	for t := range mix.Threads {
		th := &mix.Threads[t]
		in := perfmodel.ThreadInput{CPIBase: th.CPIBase, MLP: th.MLP}
		start := len(acc)
		for k, v := range th.VCs {
			ah, mh := hops(t, v)
			acc = append(acc, perfmodel.VCAccess{
				APKI:      th.Rates[k],
				MissRatio: ratios[v],
				AvgHops:   ah,
				MemHops:   mh,
			})
		}
		in.Accesses = acc[start:len(acc):len(acc)]
		inputs[t] = in
	}
	ar.acc = acc
	return inputs
}
