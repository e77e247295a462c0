// Package core implements the paper's primary contribution: the CDCS
// reconfiguration runtime (§IV, Fig. 4). Every reconfiguration period the
// OS-level runtime reads per-VC miss curves and runs four steps:
//
//  1. latency-aware capacity allocation (Peekahead over total-latency curves),
//  2. optimistic contention-aware VC placement,
//  3. thread placement at the access-weighted centers of mass,
//  4. refined VC placement (greedy + bounded-spiral trades).
//
// Each step can be disabled independently, which yields the paper's factor
// analysis (+L, +T, +D in Fig. 12) and the Jigsaw baseline (all off: miss-
// curve allocation, fixed threads, greedy placement only).
package core

import (
	"fmt"
	"slices"
	"time"

	"cdcs/internal/alloc"
	"cdcs/internal/mesh"
	"cdcs/internal/place"
	"cdcs/internal/workload"
)

// Features selects which CDCS techniques run (Fig. 12's factor analysis).
type Features struct {
	// LatencyAware allocates from total-latency curves (+L); off allocates
	// from miss curves only and always uses all capacity, like Jigsaw.
	LatencyAware bool
	// ThreadPlace runs CDCS thread placement (+T); off keeps the caller's
	// fixed thread placement (clustered or random schedulers).
	ThreadPlace bool
	// RefinedTrades runs the trade pass after greedy placement (+D).
	RefinedTrades bool
}

// AllCDCS enables every CDCS technique (+LTD).
func AllCDCS() Features {
	return Features{LatencyAware: true, ThreadPlace: true, RefinedTrades: true}
}

// Config parameterizes the runtime.
type Config struct {
	// Chip is the placement substrate.
	Chip place.Chip
	// Model holds the latency constants used to build cost curves.
	Model alloc.LatencyModel
	// ChunkLines is the allocation/placement granularity (64KB=1024 lines in
	// the paper). Zero selects bankLines/8.
	ChunkLines float64
	// BankGranular forces whole-bank allocations (§VI-C's coarse variant).
	BankGranular bool
	// Feats selects the enabled techniques.
	Feats Features
}

// chunk returns the effective allocation granularity.
func (c Config) chunk() float64 {
	if c.BankGranular {
		return c.Chip.BankLines
	}
	if c.ChunkLines > 0 {
		return c.ChunkLines
	}
	return c.Chip.BankLines / 8
}

// Timing records wall time per reconfiguration step (Table 3).
type Timing struct {
	Alloc       time.Duration
	VCPlace     time.Duration
	ThreadPlace time.Duration
	DataPlace   time.Duration
}

// Total sums all steps.
func (t Timing) Total() time.Duration {
	return t.Alloc + t.VCPlace + t.ThreadPlace + t.DataPlace
}

// Result is a complete co-schedule: VC sizes, data placement, and thread
// placement, plus step timings and trade statistics.
type Result struct {
	// VCSizes[v] is VC v's capacity allocation in lines.
	VCSizes []float64
	// Assignment maps each VC to per-bank lines.
	Assignment place.Assignment
	// ThreadCore maps each thread to its core tile.
	ThreadCore []mesh.Tile
	// Optimistic is the intermediate contention-aware placement (step 2).
	Optimistic place.Optimistic
	// Trades counts executed refinement trades; TradeGain is their total
	// Eq. 2 latency reduction (≤ 0).
	Trades    int
	TradeGain float64
	// Timing records per-step wall time.
	Timing Timing
}

// ReconfigureWith runs one full reconfiguration for the mix. fixedThreads
// supplies the thread placement used when Feats.ThreadPlace is off (and
// seeds nothing otherwise); it must cover all threads in the mix. It returns
// an error when the mix does not fit the chip (more threads than cores) or
// when inputs are inconsistent.
//
// Reusing one arena makes a steady-state round — capacity allocation
// (step 1) and the placement pipeline (steps 2-4) — allocation-free across
// rounds; the placement demands alias the mix's accessor lists. The
// returned Result then borrows the arena's memory (VCSizes, Assignment,
// ThreadCore, Optimistic) and stays valid only until the arena's next use;
// pass nil to get an independent Result.
func ReconfigureWith(cfg Config, mix *workload.Mix, fixedThreads []mesh.Tile, ar *Arena) (Result, error) {
	nThreads := len(mix.Threads)
	if nThreads > cfg.Chip.Banks() {
		return Result{}, fmt.Errorf("core: %d threads exceed %d cores", nThreads, cfg.Chip.Banks())
	}
	if !cfg.Feats.ThreadPlace {
		if len(fixedThreads) < nThreads {
			return Result{}, fmt.Errorf("core: fixed thread placement covers %d of %d threads", len(fixedThreads), nThreads)
		}
	}
	if ar == nil {
		ar = NewArena()
	}
	pa := &ar.Place

	var res Result

	// Step 1: capacity allocation.
	start := time.Now()
	res.VCSizes = allocate(cfg, mix, &ar.Alloc)
	res.Timing.Alloc = time.Since(start)

	ar.demands = fillDemands(ar.demands, mix, res.VCSizes)
	demands := ar.demands

	// Steps 2-4 dispatch on chip size: above place.HierarchyThreshold banks
	// the flat pipeline's O(banks²) scans would dominate, so placement runs
	// hierarchically over the mesh's cluster view. At or below the threshold
	// the hierarchical path is never taken and results are bit-identical to
	// the flat pipeline by construction.
	hier := place.Hierarchical(cfg.Chip)

	// Step 2: optimistic contention-aware VC placement.
	start = time.Now()
	if hier {
		res.Optimistic = place.HierOptimisticPlaceIn(pa, cfg.Chip, demands)
	} else {
		res.Optimistic = place.OptimisticPlaceIn(pa, cfg.Chip, demands)
	}
	res.Timing.VCPlace = time.Since(start)

	// Step 3: thread placement.
	start = time.Now()
	if !cfg.Feats.ThreadPlace {
		res.ThreadCore = append([]mesh.Tile(nil), fixedThreads[:nThreads]...)
	} else if hier {
		res.ThreadCore = place.HierPlaceThreadsIn(pa, cfg.Chip, demands, res.Optimistic, nThreads)
	} else {
		res.ThreadCore = place.PlaceThreadsIn(pa, cfg.Chip, demands, res.Optimistic, nThreads)
	}
	res.Timing.ThreadPlace = time.Since(start)

	// Step 4: refined data placement.
	start = time.Now()
	if hier {
		res.Assignment, res.Trades, res.TradeGain = place.HierGreedyRefineIn(
			pa, cfg.Chip, demands, res.ThreadCore, cfg.chunk(), cfg.Feats.RefinedTrades)
	} else {
		res.Assignment = place.GreedyIn(pa, cfg.Chip, demands, res.ThreadCore, cfg.chunk())
		if cfg.Feats.RefinedTrades {
			res.Trades, res.TradeGain = place.RefineIn(pa, cfg.Chip, demands, res.Assignment, res.ThreadCore)
		}
	}
	res.Timing.DataPlace = time.Since(start)

	return res, nil
}

// allocate sizes all VCs (step 1). Latency-aware mode uses total-latency
// curves, built only as far as Peekahead can use them, and may leave
// capacity unused; otherwise miss-cost curves are used and all capacity is
// handed out (Jigsaw).
//
// A VC's cost curve depends only on its miss-ratio curve and its APKI: the
// chip, the model and the features are fixed for the round. Mixes draw
// their VCs from a few shared profiles (1024 VCs of a 128×128 cell have at
// most 16 distinct curves), so each distinct curve is built once, keyed on
// the identity of the VC's MissRatio storage and the bits of its APKI, and
// every VC of the class gets the same header; Peekahead then hulls each
// class once. Curve backings, hull storage and the segment heap come from
// aa and are reused across calls.
func allocate(cfg Config, mix *workload.Mix, aa *alloc.Arena) []float64 {
	total := cfg.Chip.TotalLines()
	dist := aa.CompactDistance(cfg.Chip.Topo, cfg.Chip.BankLines)
	costs := aa.SharedCosts(len(mix.VCs))
	for v := range mix.VCs {
		vc := &mix.VCs[v]
		apki := vc.TotalAPKI()
		slot, first := aa.Share(v, vc.MissRatio, apki)
		if first {
			if cfg.Feats.LatencyAware {
				*slot = alloc.TotalLatencyPrefixInto(*slot, vc.MissRatio, apki, dist, cfg.Model, total)
			} else {
				*slot = alloc.MissLatencyCurveInto(*slot, vc.MissRatio, apki, cfg.Model, total)
			}
		}
		costs[v] = *slot
	}
	if cfg.BankGranular {
		return alloc.PeekaheadQuantizedIn(aa, costs, total, cfg.Chip.BankLines)
	}
	if cfg.Feats.LatencyAware {
		return alloc.PeekaheadIn(aa, costs, total)
	}
	return alloc.PeekaheadFullIn(aa, costs, total)
}

// OnChipLatency evaluates Eq. 2 (access·hops) for a result.
func (r Result) OnChipLatency(cfg Config, mix *workload.Mix) float64 {
	return place.OnChipLatency(cfg.Chip, Demands(mix, r.VCSizes), r.Assignment, r.ThreadCore)
}

// Demands returns the placement view of the mix at the given VC sizes. Each
// demand aliases its VC's accessor lists, which placement only reads.
func Demands(mix *workload.Mix, sizes []float64) []place.Demand {
	return fillDemands(nil, mix, sizes)
}

// fillDemands is Demands into buf's storage.
func fillDemands(buf []place.Demand, mix *workload.Mix, sizes []float64) []place.Demand {
	buf = slices.Grow(buf[:0], len(mix.VCs))
	for v := range mix.VCs {
		vc := &mix.VCs[v]
		buf = append(buf, place.Demand{Size: sizes[v], Threads: vc.Threads, Rates: vc.Rates})
	}
	return buf
}
