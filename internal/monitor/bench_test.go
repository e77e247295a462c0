package monitor

import (
	"math/rand"
	"testing"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
	"cdcs/internal/trace"
)

// BenchmarkGMONAccess measures the monitor's per-access cost (hardware does
// this off the critical path; software models care about throughput).
func BenchmarkGMONAccess(b *testing.B) {
	m := NewGMON(16, 64, 1024, 524288)
	gen := trace.NewGenerator(
		curves.New([]float64{0, 8192, 16384}, []float64{0.8, 0.3, 0.1}),
		0, rand.New(rand.NewSource(1)))
	addrs := make([]cachesim.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(addrs[i&(1<<16-1)])
	}
}

// BenchmarkGMONCurveExtraction measures miss-curve reconstruction.
func BenchmarkGMONCurveExtraction(b *testing.B) {
	m := NewGMON(16, 64, 1024, 524288)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		m.Access(cachesim.Addr(rng.Intn(50000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MissRatioCurve()
	}
}
