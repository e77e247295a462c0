package place

import (
	"fmt"
	"math/rand"
	"testing"

	"cdcs/internal/mesh"
)

// benchInstance builds a 64-VC placement problem (one reconfiguration's
// steps 2-4 at paper scale).
func benchInstance() (Chip, []Demand, []mesh.Tile) {
	chip := Chip{Topo: mesh.New(8, 8), BankLines: 8192}
	rng := rand.New(rand.NewSource(1))
	demands := make([]Demand, 64)
	budget := chip.TotalLines()
	for i := range demands {
		size := rng.Float64() * budget / 48
		demands[i] = NewDemand(size, map[int]float64{i: 5 + rng.Float64()*90})
	}
	threads := RandomThreads(chip, 64, rng.Perm(64))
	return chip, demands, threads
}

func BenchmarkOptimisticPlace64(b *testing.B) {
	chip, demands, _ := benchInstance()
	ar := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimisticPlaceIn(ar, chip, demands)
	}
}

// benchInstance1024 builds a kilo-tile placement problem (beyond paper
// scale, where the pruned candidate search is active).
func benchInstance1024() (Chip, []Demand) {
	chip := Chip{Topo: mesh.New(32, 32), BankLines: 8192}
	rng := rand.New(rand.NewSource(1))
	demands := make([]Demand, 1024)
	budget := chip.TotalLines()
	for i := range demands {
		size := rng.Float64() * budget / 768
		demands[i] = NewDemand(size, map[int]float64{i: 5 + rng.Float64()*90})
	}
	return chip, demands
}

func BenchmarkOptimisticPlace1024(b *testing.B) {
	chip, demands := benchInstance1024()
	ar := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimisticPlaceIn(ar, chip, demands)
	}
}

// BenchmarkOptimisticPlace1024Exhaustive is the unpruned reference at the
// same scale, so `go test -bench OptimisticPlace1024` shows what the pruned
// candidate search buys.
func BenchmarkOptimisticPlace1024Exhaustive(b *testing.B) {
	chip, demands := benchInstance1024()
	claimed := make([]float64, chip.Banks())
	ar := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for b := range claimed {
			claimed[b] = 0
		}
		for _, v := range orderBySizeIn(ar, demands) {
			exhaustiveBestCenter(chip, claimed, demands[v].Size)
		}
	}
}

func BenchmarkGreedy64(b *testing.B) {
	chip, demands, threads := benchInstance()
	ar := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyIn(ar, chip, demands, threads, 1024)
	}
}

func BenchmarkRefine64(b *testing.B) {
	chip, demands, threads := benchInstance()
	base := GreedyIn(nil, chip, demands, threads, 1024)
	ar := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := base.Clone()
		b.StartTimer()
		RefineIn(ar, chip, demands, a, threads)
	}
}

func BenchmarkPlaceThreads64(b *testing.B) {
	chip, demands, _ := benchInstance()
	opt := OptimisticPlaceIn(nil, chip, demands)
	ar := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlaceThreadsIn(ar, chip, demands, opt, 64)
	}
}

func BenchmarkOptimalTransport16(b *testing.B) {
	chip := Chip{Topo: mesh.New(8, 8), BankLines: 8192}
	rng := rand.New(rand.NewSource(2))
	demands := make([]Demand, 16)
	for i := range demands {
		demands[i] = NewDemand(float64(1+rng.Intn(4))*8192, map[int]float64{i: 50})
	}
	threads := RandomThreads(chip, 16, rng.Perm(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalTransport(chip, demands, threads, 1024)
	}
}

// pipelineInstance builds a fully-committed w×h placement problem: one VC
// per tile, sized so total demand fills ~2/3 of the chip.
func pipelineInstance(w, h int) (Chip, []Demand, []mesh.Tile) {
	chip := Chip{Topo: mesh.New(w, h), BankLines: 8192}
	n := chip.Banks()
	rng := rand.New(rand.NewSource(7))
	demands := make([]Demand, n)
	budget := chip.TotalLines()
	for i := range demands {
		size := rng.Float64() * budget / float64(n) * 4 / 3
		demands[i] = NewDemand(size, map[int]float64{i: 5 + rng.Float64()*90})
	}
	threads := RandomThreads(chip, n, rng.Perm(n))
	return chip, demands, threads
}

// pipelineOnce runs steps 2-4 with the same size dispatch internal/core
// uses: flat at or below HierarchyThreshold banks, hierarchical above.
func pipelineOnce(ar *Arena, chip Chip, demands []Demand) {
	if Hierarchical(chip) {
		opt := HierOptimisticPlaceIn(ar, chip, demands)
		threads := HierPlaceThreadsIn(ar, chip, demands, opt, len(demands))
		HierGreedyRefineIn(ar, chip, demands, threads, chip.BankLines/8, true)
		return
	}
	opt := OptimisticPlaceIn(ar, chip, demands)
	threads := PlaceThreadsIn(ar, chip, demands, opt, len(demands))
	assign := GreedyIn(ar, chip, demands, threads, chip.BankLines/8)
	RefineIn(ar, chip, demands, assign, threads)
}

// BenchmarkPlacePipeline runs the full steps-2-4 pipeline (optimistic VC
// placement, thread placement, greedy data placement, one refine pass) on
// one reused arena, at the paper's 8×8 scale, the 24×24 and 32×32 scaling
// points, the 64×64 (stride-4 lattice) kilo-tile ceiling of the flat path,
// and the 96×96/128×128 hierarchical frontier. allocs/op is the headline
// number: after warm-up the flat pipeline must not allocate (the
// hierarchical sizes retain only the bounded goroutine fan-out).
func BenchmarkPlacePipeline(b *testing.B) {
	for _, dims := range [][2]int{{8, 8}, {24, 24}, {32, 32}, {64, 64}, {96, 96}, {128, 128}} {
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			chip, demands, _ := pipelineInstance(dims[0], dims[1])
			ar := NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipelineOnce(ar, chip, demands)
			}
		})
	}
}
