package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cdcs/internal/policy"
	"cdcs/internal/workload"
)

// campaignCase is one (mix generator, schemes) campaign configuration used
// by the determinism tests.
type campaignCase struct {
	name    string
	schemes []policy.Scheme
	genMix  func(*rand.Rand) *workload.Mix
}

func campaignCases() []campaignCase {
	cpu := workload.SPECCPU()
	omp := workload.SPECOMP()
	return []campaignCase{
		{
			name:    "ST-64apps",
			schemes: []policy.Scheme{policy.SchemeSNUCA, policy.SchemeJigsawR, policy.SchemeCDCS},
			genMix: func(rng *rand.Rand) *workload.Mix {
				return workload.RandomST(rng, cpu, 64)
			},
		},
		{
			name:    "ST-4apps",
			schemes: []policy.Scheme{policy.SchemeSNUCA, policy.SchemeRNUCA, policy.SchemeCDCS},
			genMix: func(rng *rand.Rand) *workload.Mix {
				return workload.RandomST(rng, cpu, 4)
			},
		},
		{
			name:    "MT-8apps",
			schemes: []policy.Scheme{policy.SchemeSNUCA, policy.SchemeJigsawC, policy.SchemeCDCS},
			genMix: func(rng *rand.Rand) *workload.Mix {
				return workload.RandomMT(rng, omp, 8)
			},
		},
	}
}

// TestEngineCampaignDeterminism asserts that campaign results are
// bit-identical across worker counts, for both ST and MT mixes: same WS
// vectors, same Traffic/Energy aggregates, same everything.
func TestEngineCampaignDeterminism(t *testing.T) {
	env := policy.DefaultEnv()
	const nMixes, seed = 4, 1
	for _, tc := range campaignCases() {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := Engine{Parallelism: 1}.RunCampaign(env, tc.schemes, nMixes, seed, tc.genMix)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				par, err := Engine{Parallelism: workers}.RunCampaign(env, tc.schemes, nMixes, seed, tc.genMix)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("Parallelism=%d diverges from sequential:\nseq: %+v\npar: %+v", workers, seq, par)
				}
			}
		})
	}
}

// TestEngineMatchesSeedStream asserts the engine reproduces the historical
// sequential implementation's exact seed streams: mix m from
// baseSeed + m*7919, run (m, i) from baseSeed + m*7919 + i + 1.
func TestEngineMatchesSeedStream(t *testing.T) {
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()
	schemes := []policy.Scheme{policy.SchemeSNUCA, policy.SchemeJigsawR}
	const nMixes, baseSeed = 3, 42

	got, err := Engine{Parallelism: 4}.RunCampaign(env, schemes, nMixes, baseSeed, func(rng *rand.Rand) *workload.Mix {
		return workload.RandomST(rng, cpu, 16)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hand-rolled sequential reference with explicit seeds.
	for m := 0; m < nMixes; m++ {
		mix := workload.RandomST(rand.New(rand.NewSource(baseSeed+int64(m)*7919)), cpu, 16)
		var base MixResult
		for i, s := range schemes {
			res, err := RunMixWith(env, s, mix, rand.New(rand.NewSource(baseSeed+int64(m)*7919+int64(i)+1)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = res
			}
			if ws := WeightedSpeedup(res, base); got[i].WS[m] != ws {
				t.Errorf("mix %d scheme %s: WS %v != reference %v", m, s.Name(), got[i].WS[m], ws)
			}
		}
	}
}

// TestEngineCanceledContext asserts a pre-canceled context returns
// immediately with ctx.Err() and runs no jobs.
func TestEngineCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := policy.DefaultEnv()
	cpu := workload.SPECCPU()

	calls := 0
	err := Engine{Ctx: ctx, Parallelism: 4}.ForEach(100, func(int) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach on canceled ctx: err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("%d jobs ran on a canceled context", calls)
	}

	if _, err := (Engine{Ctx: ctx}).RunCampaign(env,
		[]policy.Scheme{policy.SchemeSNUCA}, 4, 1,
		func(rng *rand.Rand) *workload.Mix { return workload.RandomST(rng, cpu, 4) },
	); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCampaign on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestEngineMidRunCancellation cancels while jobs are in flight and asserts
// the run returns promptly with ctx.Err() instead of draining all work.
func TestEngineMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000
	var mu sync.Mutex
	ran := 0
	start := time.Now()
	err := Engine{Ctx: ctx, Parallelism: 4}.ForEach(n, func(i int) error {
		mu.Lock()
		ran++
		if ran == 8 {
			cancel()
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= n {
		t.Error("cancellation did not stop the run early")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEngineFailFast asserts the first job error cancels remaining work and
// propagates.
func TestEngineFailFast(t *testing.T) {
	boom := errors.New("boom")
	var mu sync.Mutex
	ran := 0
	err := Engine{Parallelism: 4}.ForEach(1000, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran >= 1000 {
		t.Error("fail-fast did not stop the run early")
	}
}

// TestEngineProgress asserts the progress callback sees strictly increasing
// done counts ending at the total.
func TestEngineProgress(t *testing.T) {
	const n = 50
	last, calls := 0, 0
	e := Engine{
		Parallelism: 4,
		OnProgress: func(done, total int) {
			calls++
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			if done != last+1 {
				t.Errorf("done jumped from %d to %d", last, done)
			}
			last = done
		},
	}
	if err := e.ForEach(n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != n || last != n {
		t.Errorf("progress calls = %d (last done %d), want %d", calls, last, n)
	}
}

// TestEngineMonitoredMixDeterminism asserts the parallel monitored-curve
// path is worker-count independent.
func TestEngineMonitoredMixDeterminism(t *testing.T) {
	cpu := workload.SPECCPU()
	mix := workload.RandomST(rand.New(rand.NewSource(3)), cpu, 8)
	one, err := Engine{Parallelism: 1}.MonitoredMix(mix, 1<<16, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Engine{Parallelism: 8}.MonitoredMix(mix, 1<<16, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("MonitoredMix differs across worker counts")
	}
}
