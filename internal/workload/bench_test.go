package workload

import (
	"math/rand"
	"testing"
)

// BenchmarkMixBuild times building the access graph of the largest mixes the
// sweeps generate: 1,024 single-threaded apps (a 128×128 cell's random mix)
// and 32 eight-thread apps. B/op and allocs/op are gated, so per-app maps or
// per-edge allocations cannot creep back into AddST/AddMT unnoticed.
func BenchmarkMixBuild(b *testing.B) {
	cpu, omp := SPECCPU(), SPECOMP()
	for _, bc := range []struct {
		name  string
		build func(rng *rand.Rand) *Mix
	}{
		{"st1024", func(rng *rand.Rand) *Mix { return RandomST(rng, cpu, 1024) }},
		{"mt32", func(rng *rand.Rand) *Mix { return RandomMT(rng, omp, 32) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng.Seed(1)
				if m := bc.build(rng); len(m.Threads) == 0 {
					b.Fatal("empty mix")
				}
			}
		})
	}
}
