// Package perfmodel turns a schedule (thread placement, VC sizes, data
// placement) into performance, traffic and energy numbers. It implements the
// paper's latency accounting — Eq. 1 off-chip latency and Eq. 2 on-chip
// latency — on top of a CPI model with memory-level parallelism, plus an
// M/D/1 queueing model for memory-bandwidth contention (which is what makes
// milc speed up when omnet stops missing, §II-B) and per-event energy
// accounting in the spirit of McPAT (Fig. 11e).
package perfmodel

import (
	"fmt"
	"math"
)

// Params holds the machine constants of the modeled CMP (Table 2).
type Params struct {
	// BankLatency is the LLC bank access latency in cycles.
	BankLatency float64
	// HopLatency is the one-way per-hop NoC latency in cycles (3-cycle
	// router + 1-cycle link).
	HopLatency float64
	// RoundTrip multiplies hop distances (request + response traversal).
	RoundTrip float64
	// MemZeroLoad is the zero-load memory latency in cycles (120).
	MemZeroLoad float64
	// MemBurst is the per-line channel occupancy in cycles (64B at
	// 12.8GB/s and 2GHz ≈ 10 cycles).
	MemBurst float64
	// Channels is the number of memory channels (8).
	Channels int
	// NUMAAware, when set, adds the bank-to-controller network traversal to
	// each miss's latency (the paper's §III notes extending Eq. 1 this way
	// as future work; off by default, matching the paper's uniform-latency
	// interleaved-page model).
	NUMAAware bool

	// Energy constants, picojoules per event.
	CorePJPerInstr  float64
	LLCPJPerAccess  float64
	NetPJPerFlitHop float64
	MemPJPerAccess  float64
	// StaticWatts is chip+DRAM static power; FreqGHz converts time to
	// cycles for the static-energy-per-instruction term.
	StaticWatts float64
	FreqGHz     float64
}

// DefaultParams returns constants for the paper's 64-core CMP at 22nm
// (Table 2 latencies; energies chosen to reproduce the Fig. 11e breakdown
// shape — see DESIGN.md substitutions).
func DefaultParams() Params {
	return Params{
		BankLatency:     9,
		HopLatency:      4,
		RoundTrip:       2,
		MemZeroLoad:     120,
		MemBurst:        10,
		Channels:        8,
		CorePJPerInstr:  65,
		LLCPJPerAccess:  250,
		NetPJPerFlitHop: 17,
		MemPJPerAccess:  22000,
		StaticWatts:     42,
		FreqGHz:         2,
	}
}

// VCAccess is one thread's traffic into one VC under a schedule.
type VCAccess struct {
	// APKI is the thread's LLC accesses per kilo-instruction into this VC.
	APKI float64
	// MissRatio is the VC's effective miss ratio under its allocation.
	MissRatio float64
	// AvgHops is the access-weighted mean one-way hop count from the
	// thread's core to the VC's banks (Eq. 2's D(c_t, b) term).
	AvgHops float64
	// MemHops is the mean one-way hop count from the VC's banks to the
	// memory controllers (LLC-to-memory traffic distance).
	MemHops float64
}

// ThreadInput is everything the model needs about one thread.
type ThreadInput struct {
	// CPIBase is the thread's CPI with a perfect LLC.
	CPIBase float64
	// MLP divides exposed miss latency.
	MLP float64
	// Accesses lists the thread's VC streams.
	Accesses []VCAccess
}

// ThreadResult is the model's per-thread output.
type ThreadResult struct {
	// IPC is instructions per cycle.
	IPC float64
	// OnChipPKI is network latency cycles per kilo-instruction on L2-LLC
	// accesses (Eq. 2, as reported in Fig. 11b: network only, excluding
	// bank access time). OffChipPKI is memory latency per kilo-instruction
	// (Eq. 1).
	OnChipPKI  float64
	OffChipPKI float64
	// MPKI and APKI summarize the thread's LLC behaviour.
	MPKI float64
	APKI float64
}

// Traffic is NoC traffic in flit-hops per instruction, split by class
// (Fig. 11d).
type Traffic struct {
	L2LLC  float64
	LLCMem float64
	Other  float64
}

// Total sums all classes.
func (t Traffic) Total() float64 { return t.L2LLC + t.LLCMem + t.Other }

// Energy is energy per instruction in picojoules, split as in Fig. 11e.
type Energy struct {
	Static float64
	Core   float64
	Net    float64
	LLC    float64
	Mem    float64
}

// Total sums all components.
func (e Energy) Total() float64 { return e.Static + e.Core + e.Net + e.LLC + e.Mem }

// ChipResult is the model's chip-wide output.
type ChipResult struct {
	Threads []ThreadResult
	// MemLatency is the converged effective memory latency (cycles).
	MemLatency float64
	// MemUtilization is channel utilization in [0,1).
	MemUtilization float64
	// AggIPC is the summed IPC of all threads.
	AggIPC float64
	// TrafficPerInstr and EnergyPerInstr are chip-wide per-instruction
	// averages (weighted by each thread's instruction throughput).
	TrafficPerInstr Traffic
	EnergyPerInstr  Energy
}

// flitsPerLine: 64B line over 128-bit flits = 4 data flits + 1 header.
const flitsPerLine = 5

// requestFlits: a request message is a single flit.
const requestFlits = 1

// writebackFraction approximates the fraction of misses that also write back
// a dirty line.
const writebackFraction = 0.35

// Evaluate runs the bandwidth-contention fixed point and returns converged
// per-thread and chip-wide results. It panics on structurally invalid input
// (no threads, bad params); workloads with zero access rates are fine.
func Evaluate(p Params, threads []ThreadInput) ChipResult {
	if len(threads) == 0 {
		panic("perfmodel: no threads")
	}
	validate(p)

	memLat := p.MemZeroLoad + p.MemBurst
	per := make([]ThreadResult, len(threads))
	var res ChipResult
	// Fixed point: IPC depends on memory latency; bandwidth demand depends
	// on IPC; memory latency depends on bandwidth demand. Damped iteration
	// converges quickly for all workloads we generate.
	for iter := 0; iter < 60; iter++ {
		res = evaluateAt(p, threads, memLat, per)
		demand := 0.0 // miss lines per cycle
		for i := range res.Threads {
			demand += res.Threads[i].IPC * res.Threads[i].MPKI / 1000
		}
		// Each miss occupies a channel for MemBurst cycles; dirty evictions
		// add writeback occupancy.
		capacity := float64(p.Channels) / p.MemBurst
		util := demand * (1 + writebackFraction) / capacity
		if util > 0.98 {
			util = 0.98
		}
		// M/D/1 queueing delay on top of zero-load latency.
		queue := p.MemBurst * util / (2 * (1 - util))
		target := p.MemZeroLoad + p.MemBurst + queue
		res.MemLatency = memLat
		res.MemUtilization = util
		if math.Abs(target-memLat) < 0.01 {
			break
		}
		memLat = 0.5*memLat + 0.5*target
	}

	res.addTrafficAndEnergy(p, threads)
	return res
}

// evaluateAt computes per-thread results for a given memory latency,
// overwriting per (one entry per thread), which the result's Threads aliases.
func evaluateAt(p Params, threads []ThreadInput, memLat float64, per []ThreadResult) ChipResult {
	out := ChipResult{Threads: per}
	for i, th := range threads {
		var netPKI, bankPKI, offPKI, mpki, apki float64
		for _, a := range th.Accesses {
			netPKI += a.APKI * a.AvgHops * p.HopLatency * p.RoundTrip
			bankPKI += a.APKI * p.BankLatency
			missPKI := a.APKI * a.MissRatio
			mpki += missPKI
			apki += a.APKI
			lat := memLat
			if p.NUMAAware {
				lat += a.MemHops * p.HopLatency * p.RoundTrip
			}
			offPKI += missPKI * lat
		}
		mlp := th.MLP
		if mlp < 1 {
			mlp = 1
		}
		// The OOO core overlaps both LLC and memory latency up to its MLP;
		// exposed latency is the full Eq. 1 + Eq. 2 sum divided by MLP.
		cpi := th.CPIBase + (netPKI+bankPKI+offPKI)/1000/mlp
		out.Threads[i] = ThreadResult{
			IPC:        1 / cpi,
			OnChipPKI:  netPKI,
			OffChipPKI: offPKI,
			MPKI:       mpki,
			APKI:       apki,
		}
		out.AggIPC += 1 / cpi
	}
	return out
}

// addTrafficAndEnergy fills chip-wide traffic and energy once IPC has
// converged, weighting threads by instruction-throughput share.
func (r *ChipResult) addTrafficAndEnergy(p Params, threads []ThreadInput) {
	if r.AggIPC <= 0 {
		return
	}
	var tr Traffic
	var llcAccessPI, memAccessPI float64
	for i, th := range threads {
		w := r.Threads[i].IPC / r.AggIPC
		for _, a := range th.Accesses {
			accPI := a.APKI / 1000
			missPI := accPI * a.MissRatio
			// L2<->LLC: request flit out, data line back, each over AvgHops.
			tr.L2LLC += w * accPI * a.AvgHops * (requestFlits + flitsPerLine)
			// LLC<->Mem: miss request to the controller, line back, plus
			// writeback traffic at the same distance.
			tr.LLCMem += w * missPI * a.MemHops * (requestFlits + flitsPerLine) * (1 + writebackFraction)
			llcAccessPI += w * accPI
			memAccessPI += w * missPI
		}
	}
	// Control traffic (coherence lookups, invalidations, ACKs).
	tr.Other = 0.08 * (tr.L2LLC + tr.LLCMem)
	r.TrafficPerInstr = tr

	r.EnergyPerInstr = Energy{
		Static: p.StaticWatts * 1e12 / (p.FreqGHz * 1e9) / r.AggIPC,
		Core:   p.CorePJPerInstr,
		Net:    tr.Total() * p.NetPJPerFlitHop,
		LLC:    llcAccessPI * p.LLCPJPerAccess,
		Mem:    memAccessPI * (1 + writebackFraction) * p.MemPJPerAccess,
	}
}

func validate(p Params) {
	if p.Channels <= 0 || p.MemBurst <= 0 || p.FreqGHz <= 0 {
		panic(fmt.Sprintf("perfmodel: invalid params %+v", p))
	}
}
