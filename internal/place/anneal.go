package place

import (
	"math"
	"math/rand"

	"cdcs/internal/mesh"
)

// AnnealThreads is the §VI-C simulated-annealing thread placer: it improves
// a thread placement by Metropolis-accepted core swaps against the Eq. 2
// on-chip latency with the data placement held fixed. The paper runs 5000
// swap rounds and finds it only ~0.6% better than CDCS at far higher cost;
// this implementation exists to reproduce that comparison.
//
// Returns the improved placement and its Eq. 2 latency (access·hops).
func AnnealThreads(chip Chip, demands []Demand, assign Assignment, threadCore []mesh.Tile, rounds int, rng *rand.Rand) ([]mesh.Tile, float64) {
	nT := len(threadCore)
	nC := chip.Banks()

	// threadCost[t][c] = Eq. 2 contribution of thread t if placed on core c.
	// Precomputing it makes each swap O(1) to evaluate.
	vcFrac := make([][]float64, len(demands)) // dense per-bank fractions; nil for empty VCs
	for v := range demands {
		size := assign.Placed(v)
		if size <= 0 {
			continue
		}
		av := &assign[v]
		f := make([]float64, nC)
		for i := 0; i < av.Len(); i++ {
			b, l := av.At(i)
			f[b] = l / size
		}
		vcFrac[v] = f
	}
	threadCost := make([][]float64, nT)
	for t := 0; t < nT; t++ {
		threadCost[t] = make([]float64, nC)
	}
	for v := range demands {
		if vcFrac[v] == nil {
			continue
		}
		d := &demands[v]
		banks := assign[v].Banks()
		for i, t := range d.Threads {
			if t >= nT {
				continue
			}
			rate := d.Rates[i]
			for c := 0; c < nC; c++ {
				sum := 0.0
				for _, b := range banks {
					sum += vcFrac[v][b] * float64(chip.Topo.Distance(mesh.Tile(c), b))
				}
				threadCost[t][c] += rate * sum
			}
		}
	}

	cur := append([]mesh.Tile(nil), threadCore...)
	occupant := make([]int, nC) // core -> thread (-1 empty)
	for i := range occupant {
		occupant[i] = -1
	}
	for t, c := range cur {
		occupant[c] = t
	}
	cost := 0.0
	for t := 0; t < nT; t++ {
		cost += threadCost[t][cur[t]]
	}

	// Geometric cooling from a temperature comparable to typical deltas.
	temp := cost / float64(nT+1)
	if temp <= 0 {
		temp = 1
	}
	cooling := math.Pow(1e-3, 1/math.Max(1, float64(rounds)))

	for round := 0; round < rounds; round++ {
		t := rng.Intn(nT)
		c2 := mesh.Tile(rng.Intn(nC))
		c1 := cur[t]
		if c1 == c2 {
			temp *= cooling
			continue
		}
		other := occupant[c2]
		delta := threadCost[t][c2] - threadCost[t][c1]
		if other >= 0 {
			delta += threadCost[other][c1] - threadCost[other][c2]
		}
		if delta < 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-12)) {
			cur[t] = c2
			occupant[c2] = t
			occupant[c1] = other
			if other >= 0 {
				cur[other] = c1
			}
			cost += delta
		}
		temp *= cooling
	}
	return cur, cost
}
