package sim

import (
	"context"
	"math/rand"
	"runtime"
	"sync"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
	"cdcs/internal/perfmodel"
	"cdcs/internal/policy"
	"cdcs/internal/stats"
	"cdcs/internal/workload"
)

// Engine executes independent simulation jobs over a bounded worker pool.
// The zero value is ready to use: it runs with GOMAXPROCS workers, a
// background context and no progress reporting.
//
// Campaigns are embarrassingly parallel — every (mix, scheme) pair is an
// independent evaluation with its own seeded rng — so the engine guarantees
// that results are bit-identical for any worker count: randomness is derived
// per job (never from a shared stream), workers write only their own output
// slots, and all floating-point aggregation happens in a deterministic
// sequential pass after the fan-out.
type Engine struct {
	// Parallelism is the maximum number of concurrently running jobs.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Parallelism int
	// Ctx cancels in-flight work: workers stop picking up jobs as soon as
	// the context is done and the run returns ctx.Err(). Nil means
	// context.Background() (never canceled).
	Ctx context.Context
	// OnProgress, when non-nil, is called after each completed job with the
	// number of jobs finished so far and the total job count. Calls are
	// serialized (the callback needs no locking) and done is strictly
	// increasing, but jobs complete in arbitrary order across workers.
	OnProgress func(done, total int)
}

// workers resolves the effective worker count.
func (e Engine) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// context resolves the effective context.
func (e Engine) context() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// silent returns a copy of the engine with progress reporting disabled, for
// internal phases (e.g. mix generation) that should not count as jobs.
func (e Engine) silent() Engine {
	e.OnProgress = nil
	return e
}

// ForEach runs fn(i) for every i in [0, n) on the worker pool and waits for
// completion. It fails fast: the first error cancels the remaining jobs and
// is returned (in-flight jobs finish first). If the engine's context is
// canceled, ForEach returns ctx.Err().
//
// fn must be safe to call concurrently and should confine its writes to
// per-index state (e.g. its own slot of a pre-allocated results slice).
func (e Engine) ForEach(n int, fn func(i int) error) error {
	ctx := e.context()
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers := e.workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
			if e.OnProgress != nil {
				e.OnProgress(i+1, n)
			}
		}
		return nil
	}

	// Fan out: workers pull indices from a shared cursor until the work runs
	// out, an error occurs, or the context is canceled.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		next     int
		done     int
		firstErr error
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			cancel()
			return
		}
		done++
		if e.OnProgress != nil {
			e.OnProgress(done, n)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if runCtx.Err() != nil {
					return
				}
				i, ok := claim()
				if !ok {
					return
				}
				finish(fn(i))
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// RunCampaign evaluates schemes across mixes generated by genMix, using
// scheme[0] as the baseline (conventionally S-NUCA). It produces
// bit-identical results for any Parallelism: each mix is generated from an
// rng seeded baseSeed + m*7919 and each (mix, scheme) run from
// baseSeed + m*7919 + i + 1, exactly the sequential seed streams, and the
// per-scheme aggregates are reduced in a deterministic order after all jobs
// complete.
//
// genMix must be safe to call concurrently (it receives a private rng per
// call and should only read shared profile data, as the workload generators
// do). Progress is reported over the nMixes x len(schemes) evaluation jobs;
// mix generation is not counted.
func (e Engine) RunCampaign(env policy.Env, schemes []policy.Scheme, nMixes int, baseSeed int64, genMix func(*rand.Rand) *workload.Mix) ([]CampaignResult, error) {
	nSchemes := len(schemes)
	out := make([]CampaignResult, nSchemes)
	for i, s := range schemes {
		out[i].Scheme = s.Name()
	}
	if nMixes <= 0 || nSchemes == 0 {
		return out, e.context().Err()
	}

	// Phase 1: materialize the mixes. Each mix has a private rng derived
	// only from its index, so generation parallelizes without perturbing
	// the random streams.
	mixes := make([]*workload.Mix, nMixes)
	if err := e.silent().ForEach(nMixes, func(m int) error {
		mixRng := rand.New(rand.NewSource(baseSeed + int64(m)*7919))
		mixes[m] = genMix(mixRng)
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: fan (mix, scheme) jobs over the pool. Job j covers mix
	// j/nSchemes under scheme j%nSchemes and writes only results[j]. Only
	// the fields the reduction needs are retained — a full MixResult drags
	// the whole schedule (per-VC bank maps, perfmodel inputs) along, which
	// at paper scale would hold hundreds of MB live across all jobs.
	type jobResult struct {
		perApp                []float64
		onChipPKI, offChipPKI float64
		traffic               perfmodel.Traffic
		energy                perfmodel.Energy
	}
	// Workers borrow schedule arenas from the process cache, so the
	// steady-state placement path allocates nothing per job: the jobResult
	// extraction below copies out everything that outlives the arena's reuse.
	banks := env.Chip.Banks()
	results := make([]jobResult, nMixes*nSchemes)
	if err := e.ForEach(len(results), func(j int) error {
		m, i := j/nSchemes, j%nSchemes
		runRng := SeededRand(baseSeed + int64(m)*7919 + int64(i) + 1)
		ar := policy.GetArena(banks)
		res, err := RunMixWith(env, schemes[i], mixes[m], runRng, ar)
		if err != nil {
			return err
		}
		results[j] = jobResult{
			perApp:     res.PerApp,
			onChipPKI:  res.OnChipPKI,
			offChipPKI: res.OffChipPKI,
			traffic:    res.Chip.TrafficPerInstr,
			energy:     res.Chip.EnergyPerInstr,
		}
		policy.PutArena(ar)
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 3: deterministic sequential reduction, in the same (mix-outer,
	// scheme-inner) order as the sequential implementation so floating-point
	// sums match bit for bit.
	for m := 0; m < nMixes; m++ {
		basePerApp := results[m*nSchemes].perApp
		for i := 0; i < nSchemes; i++ {
			res := results[m*nSchemes+i]
			ws := stats.WeightedSpeedup(res.perApp, basePerApp)
			out[i].WS = append(out[i].WS, ws)
			out[i].OnChipPKI += res.onChipPKI
			out[i].OffChipPKI += res.offChipPKI
			out[i].Traffic.L2LLC += res.traffic.L2LLC
			out[i].Traffic.LLCMem += res.traffic.LLCMem
			out[i].Traffic.Other += res.traffic.Other
			out[i].Energy.Static += res.energy.Static
			out[i].Energy.Core += res.energy.Core
			out[i].Energy.Net += res.energy.Net
			out[i].Energy.LLC += res.energy.LLC
			out[i].Energy.Mem += res.energy.Mem
		}
	}
	for i := range out {
		out[i].Gmean = stats.GeoMean(out[i].WS)
		out[i].Max = stats.Max(out[i].WS)
		n := float64(nMixes)
		out[i].OnChipPKI /= n
		out[i].OffChipPKI /= n
		out[i].Traffic.L2LLC /= n
		out[i].Traffic.LLCMem /= n
		out[i].Traffic.Other /= n
		out[i].Energy.Static /= n
		out[i].Energy.Core /= n
		out[i].Energy.Net /= n
		out[i].Energy.LLC /= n
		out[i].Energy.Mem /= n
	}
	return out, nil
}

// MonitoredMix reconstructs every VC miss curve in a mix through GMONs,
// returning measured curves parallel to mix.VCs. Access counts per VC are
// proportional to the VC's intensity (heavier VCs get better-sampled
// curves, as in the real system where monitors see live traffic). Every
// VC's GMON simulation is an independent job (seeded seed+v), so curves are
// identical for any worker count.
func (e Engine) MonitoredMix(mix *workload.Mix, totalLines float64, baseAccesses int, seed int64) ([]curves.Curve, error) {
	out := make([]curves.Curve, len(mix.VCs))
	err := e.ForEach(len(mix.VCs), func(v int) error {
		vc := &mix.VCs[v]
		// Scale sampling effort with intensity, bounded to keep runtime sane.
		n := int(float64(baseAccesses) * (0.25 + vc.TotalAPKI()/40))
		if n > 4*baseAccesses {
			n = 4 * baseAccesses
		}
		out[v] = MonitoredCurve(vc.MissRatio, totalLines, n, cachesim.Addr(v)<<40, seed+int64(v))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
