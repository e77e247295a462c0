package exp

import (
	"cdcs/internal/alloc"
	"cdcs/internal/curves"
	"cdcs/internal/policy"
)

// Thin aliases keeping ablation.go readable without dotted import chains.

func allocCompactDist(env policy.Env) curves.Curve {
	return alloc.CompactDistance(env.Chip.Topo, env.Chip.BankLines)
}

func allocTotalCurve(env policy.Env, ratio curves.Curve, apki float64, dist curves.Curve) curves.Curve {
	return alloc.TotalLatencyCurve(ratio, apki, dist, env.Model, env.Chip.TotalLines())
}

func allocPeekahead(costs []curves.Curve, total float64) []float64 {
	return alloc.PeekaheadIn(nil, costs, total)
}
