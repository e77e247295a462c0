package place

import (
	"math"

	"cdcs/internal/mesh"
)

// OptimalTransport computes the data placement that exactly minimizes Eq. 2
// on-chip latency for fixed thread positions and VC sizes, subject to bank
// capacities. The paper solves this with Gurobi ILP (§VI-C); with fixed
// sizes the problem is a transportation problem, which min-cost max-flow
// solves exactly — so this is a faithful stand-in for the ILP upper bound.
//
// Sizes are quantized to chunk lines (largest-remainder, never exceeding the
// original totals). Typical use: chunk = bankLines/16.
func OptimalTransport(chip Chip, demands []Demand, threadCore []mesh.Tile, chunk float64) Assignment {
	if chunk <= 0 {
		chunk = chip.BankLines / 16
	}
	dist := VCDistancesIn(nil, chip, demands, threadCore)
	nV := len(demands)
	nB := chip.Banks()

	// Quantize demand sizes to chunks.
	supply := make([]int, nV)
	for v, d := range demands {
		supply[v] = int(math.Round(d.Size / chunk))
	}
	bankCap := int(chip.BankLines / chunk)

	// Node ids: 0 = source, 1..nV = VCs, nV+1..nV+nB = banks, nV+nB+1 = sink.
	src := 0
	sink := nV + nB + 1
	g := newFlowGraph(sink + 1)
	for v := 0; v < nV; v++ {
		if supply[v] > 0 {
			g.addEdge(src, 1+v, supply[v], 0)
		}
	}
	const costScale = 1 << 22
	for v := 0; v < nV; v++ {
		if supply[v] == 0 {
			continue
		}
		// accPerLine weighting: the objective is Σ rate×frac×D; with fixed
		// size, minimizing Σ_b lines_b×rate/size×D_b per VC is equivalent to
		// minimizing Σ_b lines_b×(rate/size)×D_b. Scale costs per VC.
		w := demands[v].TotalRate() / demands[v].Size
		for b := 0; b < nB; b++ {
			c := int(math.Round(dist[v][b] * w * costScale))
			g.addEdge(1+v, 1+nV+b, supply[v], c)
		}
	}
	for b := 0; b < nB; b++ {
		g.addEdge(1+nV+b, sink, bankCap, 0)
	}

	g.minCostMaxFlow(src, sink)

	assign := NewAssignment(nV)
	for v := 0; v < nV; v++ {
		for _, eid := range g.adj[1+v] {
			e := &g.edges[eid]
			if e.to >= 1+nV && e.to < 1+nV+nB && e.flow > 0 {
				bank := mesh.Tile(e.to - 1 - nV)
				assign[v].Add(bank, float64(e.flow)*chunk)
			}
		}
	}
	return assign
}

// flowGraph is a standard successive-shortest-paths MCMF with SPFA (costs
// can start at zero; potentials are unnecessary at this scale).
type flowGraph struct {
	edges []flowEdge
	adj   [][]int
}

type flowEdge struct {
	to, cap, flow, cost int
}

func newFlowGraph(n int) *flowGraph {
	return &flowGraph{adj: make([][]int, n)}
}

func (g *flowGraph) addEdge(from, to, cap, cost int) {
	g.adj[from] = append(g.adj[from], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: to, cap: cap, cost: cost})
	g.adj[to] = append(g.adj[to], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: from, cap: 0, cost: -cost})
}

// minCostMaxFlow augments along successive shortest (by cost) paths until no
// augmenting path remains, returning (flow, cost).
func (g *flowGraph) minCostMaxFlow(src, sink int) (int, int) {
	n := len(g.adj)
	totalFlow, totalCost := 0, 0
	for {
		// SPFA shortest path by cost.
		const inf = math.MaxInt / 2
		distN := make([]int, n)
		inQueue := make([]bool, n)
		prevEdge := make([]int, n)
		for i := range distN {
			distN[i] = inf
			prevEdge[i] = -1
		}
		distN[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inQueue[u] = false
			for _, eid := range g.adj[u] {
				e := &g.edges[eid]
				if e.cap-e.flow <= 0 {
					continue
				}
				if nd := distN[u] + e.cost; nd < distN[e.to] {
					distN[e.to] = nd
					prevEdge[e.to] = eid
					if !inQueue[e.to] {
						inQueue[e.to] = true
						queue = append(queue, e.to)
					}
				}
			}
		}
		if prevEdge[sink] == -1 {
			return totalFlow, totalCost
		}
		// Bottleneck along the path.
		push := math.MaxInt
		for v := sink; v != src; {
			e := &g.edges[prevEdge[v]]
			if r := e.cap - e.flow; r < push {
				push = r
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := sink; v != src; {
			eid := prevEdge[v]
			g.edges[eid].flow += push
			g.edges[eid^1].flow -= push
			totalCost += push * g.edges[eid].cost
			v = g.edges[eid^1].to
		}
		totalFlow += push
	}
}
