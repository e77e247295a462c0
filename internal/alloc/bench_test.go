package alloc

import (
	"testing"

	"cdcs/internal/curves"
	"cdcs/internal/mesh"
	"cdcs/internal/workload"
)

// BenchmarkPeekahead64VCs measures the allocator on the paper's hot path:
// 64 total-latency curves over the 32MB LLC (one reconfiguration's step 1).
func BenchmarkPeekahead64VCs(b *testing.B) {
	topo := mesh.New(8, 8)
	dist := CompactDistance(topo, 8192)
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	profiles := workload.SPECCPU()
	costs := make([]curves.Curve, 64)
	for i := range costs {
		p := profiles[i%len(profiles)]
		costs[i] = TotalLatencyCurve(p.MissRatio, p.APKI, dist, m, 64*8192)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PeekaheadIn(nil, costs, 64*8192)
	}
}

// BenchmarkPeekahead measures one full arena-backed allocation round — the
// steady-state step-1 hot path: 64 total-latency prefix curves built into
// arena slots plus a quantized Peekahead. Gated in CI on B/op and
// allocs/op; both must stay at zero in steady state.
func BenchmarkPeekahead(b *testing.B) {
	topo := mesh.New(8, 8)
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	profiles := workload.SPECCPU()
	total := 64 * 8192.0
	ar := NewArena()
	costs := make([]curves.Curve, 64) // one slot per VC, backings reused
	round := func() {
		dist := ar.CompactDistance(topo, 8192)
		for i := range costs {
			p := profiles[i%len(profiles)]
			costs[i] = TotalLatencyPrefixInto(costs[i], p.MissRatio, p.APKI, dist, m, total)
		}
		PeekaheadQuantizedIn(ar, costs, total, 8192)
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkTotalLatencyCurve measures cost-curve construction per VC.
func BenchmarkTotalLatencyCurve(b *testing.B) {
	topo := mesh.New(8, 8)
	dist := CompactDistance(topo, 8192)
	m := LatencyModel{MemLatency: 130, HopLatency: 4, RoundTrip: 2}
	omnet := workload.ByName(workload.SPECCPU(), "omnet")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TotalLatencyCurve(omnet.MissRatio, omnet.APKI, dist, m, 64*8192)
	}
}
