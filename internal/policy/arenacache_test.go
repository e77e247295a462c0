package policy

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cdcs/internal/workload"
)

// TestArenaCacheBounded drives the process cache through more sizes and
// more concurrent borrowers than it has slots: it never holds more than
// GOMAXPROCS arenas, and an arena only ever goes back to a chip with the
// bank count it last served.
func TestArenaCacheBounded(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	envs := []Env{ScaledEnv(2, 2), ScaledEnv(4, 4), DefaultEnv(), ScaledEnv(16, 16)}
	cpu := workload.SPECCPU()
	mixes := make([]*workload.Mix, len(envs))
	for i, env := range envs {
		mixes[i] = workload.RandomST(rand.New(rand.NewSource(int64(i+1))), cpu, env.Chip.Banks()/2)
	}
	check := func() {
		arenas.mu.Lock()
		defer arenas.mu.Unlock()
		if n := len(arenas.idle); n > limit {
			t.Errorf("cache holds %d arenas, limit %d", n, limit)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*limit+1; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (g + r) % len(envs)
				banks := envs[i].Chip.Banks()
				ar := GetArena(banks)
				if ar.banks != 0 && ar.banks != banks {
					t.Errorf("GetArena(%d) returned an arena of %d banks", banks, ar.banks)
				}
				if _, err := BuildWith(envs[i], SchemeCDCS, mixes[i], nil, ar); err != nil {
					t.Error(err)
					return
				}
				PutArena(ar)
				check()
			}
		}(g)
	}
	wg.Wait()
}

// TestArenaCacheDropsOldest pins the eviction order and the size match on a
// private cache.
func TestArenaCacheDropsOldest(t *testing.T) {
	var c arenaCache
	tagged := func(banks int) *Arena { return &Arena{banks: banks} }
	a, b, d := tagged(64), tagged(1024), tagged(64)
	c.put(a, 2)
	c.put(b, 2)
	c.put(d, 2) // full: a, the oldest, goes
	if len(c.idle) != 2 || c.idle[0] != b || c.idle[1] != d {
		t.Fatalf("idle = %v, want [b d]", c.idle)
	}
	if got := c.get(64); got != d {
		t.Errorf("get(64) = %p, want the cached 64-bank arena %p", got, d)
	}
	if got := c.get(64); got == a || got == b || got.banks != 0 {
		t.Errorf("get(64) with no 64-bank arena cached returned %+v, want a fresh arena", got)
	}
	if got := c.get(1024); got != b {
		t.Errorf("get(1024) = %p, want %p", got, b)
	}
	if len(c.idle) != 0 {
		t.Errorf("%d arenas left after taking every one", len(c.idle))
	}
	c.put(a, 0) // a non-positive limit still keeps one
	if len(c.idle) != 1 {
		t.Errorf("limit 0 kept %d arenas, want 1", len(c.idle))
	}
}
