package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cdcs"
	"cdcs/internal/mesh"
	"cdcs/internal/perfmodel"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	"cdcs/internal/stats"
	"cdcs/internal/workload"
)

// compareBody mirrors the server's /v1/compare response body, field for
// field, so a decomposed cell can be checked against the served bytes.
type compareBody struct {
	Hash       string              `json:"hash"`
	Request    cdcs.CompareRequest `json:"request"`
	Comparison *cdcs.Comparison    `json:"comparison"`
}

// decomposed is one cell re-run layer by layer in-process.
type decomposed struct {
	hash  string
	side  string // "<W>x<H>"
	spans []span // cell.compute root first; times relative to the root start
	body  []byte // the encoded response body
	ws    float64
	// Per-layer durations, for the *_ms metrics.
	mesh, workload, perfmodel, encode time.Duration
	policy                            map[string]time.Duration // by scheme name
	alloc, vcPlace, threadPlace       time.Duration
	dataPlace                         time.Duration
	trades                            int
	wall                              time.Duration
}

// policyByName resolves the standard schemes.
var policyByName = map[string]policy.Scheme{
	"S-NUCA":   policy.SchemeSNUCA,
	"R-NUCA":   policy.SchemeRNUCA,
	"Jigsaw+C": policy.SchemeJigsawC,
	"Jigsaw+R": policy.SchemeJigsawR,
	"CDCS":     policy.SchemeCDCS,
}

// decompose runs req through the same steps as CompareRequest.Run —
// topology, mix generation, one policy build and performance-model
// evaluation per scheme, encoding — timing each from outside. The schemes
// run on as many workers as the server's engine uses (GOMAXPROCS, at most
// one per scheme), so the spans overlap the way the served cell's did.
// The caller compares the returned body with the served one byte for byte:
// any drift between this copy of the pipeline and the program's shows as a
// verification failure.
func decompose(req cdcs.CompareRequest) (*decomposed, error) {
	canon, err := req.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := canon.Hash()
	if err != nil {
		return nil, err
	}
	cfg := *canon.Config
	d := &decomposed{hash: hash, side: fmt.Sprintf("%dx%d", cfg.MeshWidth, cfg.MeshHeight), policy: map[string]time.Duration{}}
	epoch := time.Now()
	at := func() int64 { return int64(time.Since(epoch)) }
	var mu sync.Mutex
	add := func(s span) int64 {
		mu.Lock()
		defer mu.Unlock()
		s.ID = int64(len(d.spans) + 1)
		s.Addr = hash
		d.spans = append(d.spans, s)
		return s.ID
	}
	root := add(span{Name: "cell.compute"})

	// Topology: NewSystem builds the default environment (itself an 8×8
	// topology) and then the configured one.
	t0 := at()
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
	t1 := at()
	add(span{Parent: root, Name: "mesh.new", Start: t0, End: t1})
	d.mesh = time.Duration(t1 - t0)

	var mix *workload.Mix
	switch canon.Mix.Kind {
	case cdcs.MixRandom:
		mix = workload.RandomST(rand.New(rand.NewSource(canon.Mix.Seed)), workload.SPECCPU(), canon.Mix.N)
	case cdcs.MixRandomMT:
		mix = workload.RandomMT(rand.New(rand.NewSource(canon.Mix.Seed)), workload.SPECOMP(), canon.Mix.N)
	default:
		return nil, fmt.Errorf("decompose: mix kind %q not generated by the benchmark", canon.Mix.Kind)
	}
	mix.Seal()
	t2 := at()
	add(span{Parent: root, Name: "workload.build", Start: t1, End: t2})
	d.workload = time.Duration(t2 - t1)

	results := make([]*cdcs.Result, len(canon.Schemes))
	errs := make([]error, len(canon.Schemes))
	workers := min(runtime.GOMAXPROCS(0), len(canon.Schemes))
	next := make(chan int, len(canon.Schemes))
	for i := range canon.Schemes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = d.runScheme(env, canon.Schemes[i], mix, canon.Seed+int64(i), root, at, add, &mu)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t3 := at()

	cmp := &cdcs.Comparison{
		Baseline:        results[0].Scheme,
		Results:         map[string]*cdcs.Result{},
		WeightedSpeedup: map[string]float64{},
	}
	for _, r := range results {
		cmp.Results[r.Scheme] = r
		cmp.WeightedSpeedup[r.Scheme] = stats.WeightedSpeedup(r.PerApp, results[0].PerApp)
	}
	d.ws = cmp.WeightedSpeedup["CDCS"]
	d.body, err = json.Marshal(compareBody{Hash: hash, Request: canon, Comparison: cmp})
	if err != nil {
		return nil, err
	}
	t4 := at()
	add(span{Parent: root, Name: "encode.marshal", Start: t3, End: t4})
	d.encode = time.Duration(t4 - t3)
	d.spans[0].End = t4
	d.wall = time.Duration(t4)
	return d, nil
}

// runScheme is one scheme's share of a cell: the policy build (with the
// core phases it reports in Sched.Core.Timing as children) and the
// performance model, assembled into a Result exactly as System.Run does.
func (d *decomposed) runScheme(env policy.Env, name string, mix *workload.Mix, seed int64,
	root int64, at func() int64, add func(span) int64, mu *sync.Mutex) (*cdcs.Result, error) {
	scheme, ok := policyByName[name]
	if !ok {
		return nil, fmt.Errorf("decompose: unknown scheme %q", name)
	}
	s0 := at()
	sched, err := policy.BuildWith(env, scheme, mix, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, err
	}
	s1 := at()
	chip := perfmodel.Evaluate(env.Params, sched.Inputs)
	s2 := at()

	sp := add(span{Parent: root, Name: "scheme", Start: s0, End: s2})
	pb := add(span{Parent: sp, Name: "policy.build", Start: s0, End: s1})
	add(span{Parent: sp, Name: "perfmodel.evaluate", Start: s1, End: s2})
	mu.Lock()
	d.policy[name] = time.Duration(s1 - s0)
	d.perfmodel += time.Duration(s2 - s1)
	mu.Unlock()
	if c := sched.Core; c != nil {
		// Only the phase durations are known, not their start times: lay them
		// end to end from the build's start, inside its interval.
		cur := s0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"core.alloc", c.Timing.Alloc}, {"core.vc_place", c.Timing.VCPlace},
			{"core.thread_place", c.Timing.ThreadPlace}, {"core.data_place", c.Timing.DataPlace}} {
			end := min(cur+int64(ph.d), s1)
			add(span{Parent: pb, Name: ph.name, Start: cur, End: end})
			cur = end
		}
		mu.Lock()
		d.alloc += c.Timing.Alloc
		d.vcPlace += c.Timing.VCPlace
		d.threadPlace += c.Timing.ThreadPlace
		d.dataPlace += c.Timing.DataPlace
		d.trades += c.Trades
		mu.Unlock()
	}

	out := &cdcs.Result{
		Scheme:           sched.Name,
		PerApp:           perAppProgress(mix, chip),
		AggIPC:           chip.AggIPC,
		TrafficPerInstr:  chip.TrafficPerInstr.Total(),
		EnergyPJPerInstr: chip.EnergyPerInstr.Total(),
	}
	var instr float64
	for i := range chip.Threads {
		w := chip.Threads[i].IPC
		out.OnChipPKI += w * chip.Threads[i].OnChipPKI
		out.OffChipPKI += w * chip.Threads[i].OffChipPKI
		instr += w
	}
	if instr > 0 {
		out.OnChipPKI /= instr
		out.OffChipPKI /= instr
	}
	for _, c := range sched.ThreadCore {
		out.ThreadCores = append(out.ThreadCores, int(c))
	}
	for _, sz := range sched.VCSizes {
		out.VCSizesMB = append(out.VCSizesMB, sz/workload.LinesPerMB)
	}
	return out, nil
}

// perAppProgress reduces thread IPCs to per-process progress rates: a
// multithreaded app runs at its slowest thread's pace.
func perAppProgress(mix *workload.Mix, chip perfmodel.ChipResult) []float64 {
	out := make([]float64, len(mix.Procs))
	for p, proc := range mix.Procs {
		if !proc.Multithreaded {
			out[p] = chip.Threads[proc.ThreadIDs[0]].IPC
			continue
		}
		m := math.Inf(1)
		for _, tid := range proc.ThreadIDs {
			if ipc := chip.Threads[tid].IPC; ipc < m {
				m = ipc
			}
		}
		out[p] = m
	}
	return out
}
