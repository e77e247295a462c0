// Package cdcs is a library-level reproduction of "Scaling Distributed
// Cache Hierarchies through Computation and Data Co-Scheduling" (Beckmann,
// Tsai, Sanchez — HPCA 2015).
//
// It models a tiled CMP with a distributed, partitioned NUCA last-level
// cache and implements the paper's full stack: geometric miss-curve
// monitors (GMONs), latency-aware capacity allocation (Peekahead over
// total-latency curves), optimistic contention-aware virtual-cache
// placement, thread placement, refined placement with capacity trades, and
// incremental reconfigurations via demand moves and background
// invalidations — alongside the S-NUCA, R-NUCA and Jigsaw baselines it is
// evaluated against.
//
// Quick start:
//
//	sys := cdcs.DefaultSystem()
//	mix, _ := cdcs.RandomMix(1, 64)
//	cmp, _ := sys.Compare(mix, 1, cdcs.SNUCA, cdcs.CDCS)
//	fmt.Printf("CDCS weighted speedup: %.2f\n", cmp.WeightedSpeedup["CDCS"])
//
// Every table and figure of the paper's evaluation can be regenerated with
// Experiment (or the cmd/cdcs CLI); see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package cdcs

import (
	"context"
	"fmt"
	"math/rand"

	"cdcs/internal/core"
	"cdcs/internal/exp"
	"cdcs/internal/mesh"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/sim"
	"cdcs/internal/stats"
	"cdcs/internal/workload"
)

// Config describes the modeled CMP. The zero value is not valid; start from
// DefaultConfig. The JSON form is part of the serving API (cmd/cdcs-serve)
// and feeds the canonical request hash, so field tags are stable.
type Config struct {
	// MeshWidth and MeshHeight set the tile grid (the paper: 8×8).
	MeshWidth  int `json:"mesh_width"`
	MeshHeight int `json:"mesh_height"`
	// BankKB is the per-tile LLC bank capacity in KB (the paper: 512).
	BankKB int `json:"bank_kb"`
	// BankLatency, HopLatency, MemLatency are in cycles.
	BankLatency float64 `json:"bank_latency"`
	HopLatency  float64 `json:"hop_latency"`
	MemLatency  float64 `json:"mem_latency"`
	// MemChannels and MemBandwidthGBs describe the memory system.
	MemChannels int `json:"mem_channels"`
}

// DefaultConfig returns the paper's 64-tile configuration (Table 2).
func DefaultConfig() Config {
	return Config{
		MeshWidth: 8, MeshHeight: 8,
		BankKB:      512,
		BankLatency: 9,
		HopLatency:  4,
		MemLatency:  120,
		MemChannels: 8,
	}
}

// System is a configured machine model; create with NewSystem.
type System struct {
	env policy.Env
}

// NewSystem validates a config and builds a System.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	env := policy.DefaultEnv()
	env.Chip = place.Chip{
		Topo:      mesh.New(cfg.MeshWidth, cfg.MeshHeight),
		BankLines: float64(cfg.BankKB) * 1024 / workload.LineBytes,
	}
	if cfg.BankLatency > 0 {
		env.Params.BankLatency = cfg.BankLatency
	}
	if cfg.HopLatency > 0 {
		env.Params.HopLatency = cfg.HopLatency
		env.Model.HopLatency = cfg.HopLatency
	}
	if cfg.MemLatency > 0 {
		env.Params.MemZeroLoad = cfg.MemLatency
		env.Model.MemLatency = cfg.MemLatency + env.Params.MemBurst
	}
	if cfg.MemChannels > 0 {
		env.Params.Channels = cfg.MemChannels
	}
	return &System{env: env}, nil
}

// validate reports the first reason cfg cannot build a System. It builds
// nothing, so request canonicalization can check a config without paying
// for a topology.
func (cfg Config) validate() error {
	if cfg.MeshWidth < 1 || cfg.MeshHeight < 1 {
		return fmt.Errorf("cdcs: invalid mesh %dx%d", cfg.MeshWidth, cfg.MeshHeight)
	}
	if cfg.BankKB <= 0 {
		return fmt.Errorf("cdcs: invalid bank size %dKB", cfg.BankKB)
	}
	return nil
}

// DefaultSystem returns the paper's 64-tile system.
func DefaultSystem() *System {
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		panic(err) // DefaultConfig is always valid
	}
	return s
}

// Cores returns the number of cores (= tiles = banks).
func (s *System) Cores() int { return s.env.Chip.Banks() }

// LLCBytes returns total LLC capacity in bytes.
func (s *System) LLCBytes() int {
	return int(s.env.Chip.TotalLines()) * workload.LineBytes
}

// Scheme selects a NUCA organization + thread scheduler.
type Scheme struct {
	inner policy.Scheme
}

// Name returns the scheme's display name.
func (s Scheme) Name() string { return s.inner.Name() }

// The evaluated schemes.
var (
	// SNUCA is a static NUCA: lines spread over all banks.
	SNUCA = Scheme{policy.SchemeSNUCA}
	// RNUCA places private data locally and spreads shared data (R-NUCA).
	RNUCA = Scheme{policy.SchemeRNUCA}
	// JigsawC is Jigsaw with the clustered thread scheduler.
	JigsawC = Scheme{policy.SchemeJigsawC}
	// JigsawR is Jigsaw with the random thread scheduler.
	JigsawR = Scheme{policy.SchemeJigsawR}
	// CDCS is the paper's full computation-and-data co-scheduler.
	CDCS = Scheme{policy.SchemeCDCS}
)

// CDCSVariant builds a partial CDCS for factor analysis: enable latency-
// aware allocation (+L), thread placement (+T) and/or refined trades (+D).
// With all false it degenerates to Jigsaw with random thread placement.
func CDCSVariant(latencyAware, threadPlace, refinedTrades bool) Scheme {
	threads := policy.Random
	if threadPlace {
		threads = policy.Placed
	}
	label := "CDCS["
	for _, f := range []struct {
		on bool
		c  string
	}{{latencyAware, "L"}, {threadPlace, "T"}, {refinedTrades, "D"}} {
		if f.on {
			label += f.c
		}
	}
	label += "]"
	return Scheme{policy.Scheme{
		Kind:    policy.CDCS,
		Threads: threads,
		Feats: core.Features{
			LatencyAware:  latencyAware,
			ThreadPlace:   threadPlace,
			RefinedTrades: refinedTrades,
		},
		Label: label,
	}}
}

// Schemes returns all five standard schemes in the paper's order.
func Schemes() []Scheme {
	return []Scheme{SNUCA, RNUCA, JigsawC, JigsawR, CDCS}
}

// Mix is a workload: a set of single- and multi-threaded app instances.
// Add and AddMT build it; a built mix is read-only to Run and Compare, so
// any number of them may run on one mix concurrently. Adding apps while a
// Run or Compare is in flight is a data race.
type Mix struct {
	inner *workload.Mix
}

// NewMix returns an empty mix; populate with Add / AddMT.
func NewMix() *Mix { return &Mix{inner: workload.NewMix()} }

// Add appends n instances of a single-threaded benchmark (see Benchmarks).
func (m *Mix) Add(bench string, n int) error {
	p, err := stProfile(bench)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		m.inner.AddST(p)
	}
	return nil
}

// AddMT appends n instances of an 8-thread benchmark (see MTBenchmarks).
func (m *Mix) AddMT(bench string, n int) error {
	p, err := mtProfile(bench)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		m.inner.AddMT(p)
	}
	return nil
}

// stProfile looks up a single-threaded benchmark by name.
func stProfile(bench string) (*workload.Profile, error) {
	if p := workload.ByName(workload.SPECCPU(), bench); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("cdcs: unknown benchmark %q", bench)
}

// mtProfile looks up a multithreaded benchmark by name.
func mtProfile(bench string) (*workload.MTProfile, error) {
	if p := workload.MTByName(workload.SPECOMP(), bench); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("cdcs: unknown MT benchmark %q", bench)
}

// Threads returns the mix's total thread count.
func (m *Mix) Threads() int { return len(m.inner.Threads) }

// Apps returns the mix's process count.
func (m *Mix) Apps() int { return len(m.inner.Procs) }

// AppNames lists instance names ("omnet#1", ...).
func (m *Mix) AppNames() []string {
	out := make([]string, len(m.inner.Procs))
	for i, p := range m.inner.Procs {
		out[i] = p.Name
	}
	return out
}

// RandomMix draws n single-threaded apps uniformly from the benchmark set.
func RandomMix(seed int64, n int) (*Mix, error) {
	if n < 1 {
		return nil, fmt.Errorf("cdcs: mix needs at least one app")
	}
	return &Mix{inner: workload.RandomST(rand.New(rand.NewSource(seed)), workload.SPECCPU(), n)}, nil
}

// RandomMTMix draws n 8-thread apps uniformly from the MT benchmark set.
func RandomMTMix(seed int64, n int) (*Mix, error) {
	if n < 1 {
		return nil, fmt.Errorf("cdcs: mix needs at least one app")
	}
	return &Mix{inner: workload.RandomMT(rand.New(rand.NewSource(seed)), workload.SPECOMP(), n)}, nil
}

// CaseStudyMix returns the paper's §II-B mix (6×omnet, 14×milc, 2×ilbdc)
// for a 36-core system.
func CaseStudyMix() *Mix { return &Mix{inner: workload.CaseStudy()} }

// Benchmarks lists the single-threaded benchmark names.
func Benchmarks() []string {
	ps := workload.SPECCPU()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// MTBenchmarks lists the multithreaded benchmark names.
func MTBenchmarks() []string {
	ps := workload.SPECOMP()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Result is one scheme's outcome on a mix. The JSON form is part of the
// serving API (cmd/cdcs-serve); cached and freshly computed responses are
// byte-identical because simulation is bit-deterministic (see sim.Engine).
type Result struct {
	// Scheme is the display name.
	Scheme string `json:"scheme"`
	// PerApp is each app's progress rate (IPC; min-thread IPC for MT apps).
	PerApp []float64 `json:"per_app"`
	// AggIPC is chip-wide IPC.
	AggIPC float64 `json:"agg_ipc"`
	// OnChipPKI / OffChipPKI are mean latency cycles per kilo-instruction.
	OnChipPKI  float64 `json:"on_chip_pki"`
	OffChipPKI float64 `json:"off_chip_pki"`
	// TrafficPerInstr is NoC traffic in flit-hops per instruction.
	TrafficPerInstr float64 `json:"traffic_per_instr"`
	// EnergyPJPerInstr is energy per instruction in picojoules.
	EnergyPJPerInstr float64 `json:"energy_pj_per_instr"`
	// ThreadCores maps thread index to core tile index.
	ThreadCores []int `json:"thread_cores,omitempty"`
	// VCSizesMB lists virtual-cache allocations in MB (partitioned schemes).
	VCSizesMB []float64 `json:"vc_sizes_mb,omitempty"`
}

// Run evaluates one scheme on a mix. The seed drives random thread
// placement (and nothing else).
func (s *System) Run(scheme Scheme, mix *Mix, seed int64) (*Result, error) {
	res, err := sim.RunMixWith(s.env, scheme.inner, mix.inner, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Scheme:           res.Scheme,
		PerApp:           res.PerApp,
		AggIPC:           res.Chip.AggIPC,
		OnChipPKI:        res.OnChipPKI,
		OffChipPKI:       res.OffChipPKI,
		TrafficPerInstr:  res.Chip.TrafficPerInstr.Total(),
		EnergyPJPerInstr: res.Chip.EnergyPerInstr.Total(),
	}
	for _, c := range res.Sched.ThreadCore {
		out.ThreadCores = append(out.ThreadCores, int(c))
	}
	for _, sz := range res.Sched.VCSizes {
		out.VCSizesMB = append(out.VCSizesMB, sz/workload.LinesPerMB)
	}
	return out, nil
}

// Comparison holds several schemes evaluated on one mix against the first
// scheme as baseline. The JSON form is part of the serving API.
type Comparison struct {
	// Baseline is the name of the baseline scheme.
	Baseline string `json:"baseline"`
	// Results maps scheme name to its Result.
	Results map[string]*Result `json:"results"`
	// WeightedSpeedup maps scheme name to its weighted speedup vs baseline.
	WeightedSpeedup map[string]float64 `json:"weighted_speedup"`
}

// RunOptions controls parallel execution of Compare and Experiment calls.
// The zero value runs with GOMAXPROCS workers and no cancellation; results
// are bit-identical for any Parallelism (randomness is derived per job, see
// the engine in internal/sim).
type RunOptions struct {
	// Parallelism caps concurrent simulation jobs; 0 means GOMAXPROCS.
	Parallelism int
	// Context cancels a long evaluation early; nil means background. A
	// canceled run returns ctx.Err().
	Context context.Context
	// Progress, when non-nil, receives (done, total) after each completed
	// job. Multi-stage experiments restart the count per stage.
	Progress func(done, total int)
}

// engine converts the options to the internal worker pool.
func (o RunOptions) engine() sim.Engine {
	return sim.Engine{Parallelism: o.Parallelism, Ctx: o.Context, OnProgress: o.Progress}
}

// Compare evaluates schemes on one mix; the first scheme is the baseline
// (conventionally SNUCA). Schemes are evaluated in parallel with default
// RunOptions; use CompareWithOptions to bound parallelism or cancel.
func (s *System) Compare(mix *Mix, seed int64, schemes ...Scheme) (*Comparison, error) {
	return s.CompareWithOptions(mix, seed, RunOptions{}, schemes...)
}

// CompareWithOptions is Compare with explicit execution options. Scheme i
// runs with seed+i (the same seeds as a sequential Compare), so results do
// not depend on the worker count.
func (s *System) CompareWithOptions(mix *Mix, seed int64, opts RunOptions, schemes ...Scheme) (*Comparison, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("cdcs: Compare needs at least one scheme")
	}
	results := make([]*Result, len(schemes))
	if err := opts.engine().ForEach(len(schemes), func(i int) error {
		r, err := s.Run(schemes[i], mix, seed+int64(i))
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	cmp := &Comparison{
		Baseline:        results[0].Scheme,
		Results:         map[string]*Result{},
		WeightedSpeedup: map[string]float64{},
	}
	base := results[0]
	for _, r := range results {
		cmp.Results[r.Scheme] = r
		cmp.WeightedSpeedup[r.Scheme] = stats.WeightedSpeedup(r.PerApp, base.PerApp)
	}
	return cmp, nil
}

// Experiment regenerates one of the paper's tables or figures and returns
// its formatted report. Quick mode trims mix counts for fast smoke runs;
// full mode uses the paper's 50 mixes. Simulation jobs fan out over all
// cores; use ExperimentWithOptions to bound parallelism, cancel, or watch
// progress.
func Experiment(id string, quick bool) (string, error) {
	return ExperimentWithOptions(id, quick, RunOptions{})
}

// ExperimentWithOptions is Experiment with explicit execution options.
// Results are bit-identical for any Parallelism.
func ExperimentWithOptions(id string, quick bool, opts RunOptions) (string, error) {
	eo := exp.DefaultOptions()
	if quick {
		eo = exp.QuickOptions()
	}
	eo.Parallelism = opts.Parallelism
	eo.Context = opts.Context
	eo.Progress = opts.Progress
	rep, err := exp.Run(id, eo)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return exp.IDs() }
