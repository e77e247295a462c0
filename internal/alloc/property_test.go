package alloc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cdcs/internal/curves"
)

// genCurves builds a random allocation instance for property tests.
func genCurves(rng *rand.Rand) []curves.Curve {
	n := 1 + rng.Intn(8)
	cs := make([]curves.Curve, n)
	for i := range cs {
		cs[i] = randomDecreasing(rng)
	}
	return cs
}

func totalCost(cs []curves.Curve, alloc []float64) float64 {
	sum := 0.0
	for i, a := range alloc {
		sum += cs[i].Eval(a)
	}
	return sum
}

func TestPropertyPeekaheadNeverOverAllocates(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(genCurves(rng))
			v[1] = reflect.ValueOf(rng.Float64() * 800)
		},
	}
	prop := func(cs []curves.Curve, budget float64) bool {
		for _, fn := range []func(*Arena, []curves.Curve, float64) []float64{PeekaheadIn, PeekaheadFullIn} {
			got := fn(nil, cs, budget)
			sum := 0.0
			for i, a := range got {
				if a < -1e-9 || a > cs[i].MaxX()+1e-9 {
					return false
				}
				sum += a
			}
			if sum > budget+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyPeekaheadMonotoneInBudget(t *testing.T) {
	// More budget never yields a worse (higher) total cost.
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 150; trial++ {
		cs := genCurves(rng)
		b1 := rng.Float64() * 400
		b2 := b1 + rng.Float64()*400
		c1 := totalCost(cs, PeekaheadIn(nil, cs, b1))
		c2 := totalCost(cs, PeekaheadIn(nil, cs, b2))
		if c2 > c1+1e-6 {
			t.Fatalf("trial %d: budget %g cost %g < budget %g cost %g", trial, b1, c1, b2, c2)
		}
	}
}

func TestPropertyPeekaheadBeatsUniformSplitOnConvexCurves(t *testing.T) {
	// On convex curves the hull equals the curve, so the greedy hull walk is
	// exactly optimal and in particular never loses to an even split. (On
	// non-convex curves Peekahead — like UCP Lookahead — can stop mid-hull-
	// segment above the true curve, so the guarantee is hull-relative only.)
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(6)
		cs := make([]curves.Curve, n)
		for i := range cs {
			cs[i] = randomConvexDecreasing(rng, 10, 3+rng.Intn(10))
		}
		budget := rng.Float64() * 600
		smart := totalCost(cs, PeekaheadIn(nil, cs, budget))
		uniform := make([]float64, len(cs))
		for i := range uniform {
			u := budget / float64(len(cs))
			if u > cs[i].MaxX() {
				u = cs[i].MaxX()
			}
			uniform[i] = u
		}
		if smart > totalCost(cs, uniform)+1e-6 {
			t.Fatalf("trial %d: peekahead %g worse than uniform %g", trial, smart, totalCost(cs, uniform))
		}
	}
}

func TestPropertyFullUsesAtLeastAsMuch(t *testing.T) {
	// PeekaheadFullIn always hands out at least as much capacity as
	// PeekaheadIn.
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 150; trial++ {
		cs := genCurves(rng)
		budget := rng.Float64() * 600
		sum := func(a []float64) float64 {
			s := 0.0
			for _, v := range a {
				s += v
			}
			return s
		}
		if sum(PeekaheadFullIn(nil, cs, budget)) < sum(PeekaheadIn(nil, cs, budget))-1e-6 {
			t.Fatalf("trial %d: full allocated less than latency-aware", trial)
		}
	}
}

func TestPropertyQuantizedWithinChunkOfExact(t *testing.T) {
	// Quantized allocations are chunk-aligned, within budget, and each VC's
	// allocation is within one chunk of some feasible refinement.
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 100; trial++ {
		cs := genCurves(rng)
		budget := 100 + rng.Float64()*600
		chunk := 8 + rng.Float64()*32
		q := PeekaheadQuantizedIn(nil, cs, budget, chunk)
		sum := 0.0
		for _, a := range q {
			mod := a - float64(int(a/chunk))*chunk
			if mod > 1e-6 && chunk-mod > 1e-6 {
				t.Fatalf("trial %d: allocation %g not aligned to %g", trial, a, chunk)
			}
			sum += a
		}
		if sum > budget+1e-6 {
			t.Fatalf("trial %d: quantized total %g over budget %g", trial, sum, budget)
		}
	}
}
