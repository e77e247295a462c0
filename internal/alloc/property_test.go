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

// latencyInstance is a random step-1 input: per-VC miss-ratio curves and
// access intensities over a chip of banks, with a distance curve.
type latencyInstance struct {
	ratios []curves.Curve
	apkis  []float64
	dist   curves.Curve
	m      LatencyModel
	bank   float64
	total  float64
}

// genLatencyInstance builds 1-20 VCs whose total-latency curves are
// U-shaped: the miss ratio falls (with flat runs, sometimes to 0) while the
// distance rises (with flat runs, so flat stretches of both give exact
// rate-0 ties at the minimum). One VC in six has apki = 0, a flat zero curve.
// Distance steps are multiples of 1/8, so interpolation differences are
// exact, as CompactDistance's are.
func genLatencyInstance(rng *rand.Rand) latencyInstance {
	banks := 1 + rng.Intn(48)
	bank := float64(1 + rng.Intn(64))
	total := float64(banks) * bank
	dx, dy := []float64{0}, []float64{0}
	d := 0.0
	for b := 1; b <= banks; b++ {
		if rng.Intn(3) != 0 {
			d += float64(1+rng.Intn(8)) / 8
		}
		dx = append(dx, float64(b)*bank)
		dy = append(dy, d)
	}
	inst := latencyInstance{
		dist:  curves.New(dx, dy),
		m:     LatencyModel{MemLatency: 50 + rng.Float64()*250, HopLatency: float64(1 + rng.Intn(8)), RoundTrip: 2},
		bank:  bank,
		total: total,
	}
	for range 1 + rng.Intn(20) {
		apki := 0.5 + rng.Float64()*50
		if rng.Intn(6) == 0 {
			apki = 0
		}
		inst.apkis = append(inst.apkis, apki)
		inst.ratios = append(inst.ratios, randomMissRatio(rng, bank, total))
	}
	return inst
}

// randomMissRatio is a non-increasing miss ratio in [0, 1]. Its knots fall
// on bank boundaries or anywhere in the domain, and may run past the chip.
func randomMissRatio(rng *rand.Rand, bank, total float64) curves.Curve {
	x, r := 0.0, rng.Float64()
	xs, ys := []float64{x}, []float64{r}
	for range 1 + rng.Intn(10) {
		if rng.Intn(2) == 0 {
			x += bank * float64(1+rng.Intn(4))
		} else {
			x += 0.5 + rng.Float64()*total/4
		}
		switch rng.Intn(4) {
		case 0: // flat run
		case 1:
			r = 0
		default:
			r *= rng.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, r)
	}
	return curves.New(xs, ys)
}

// TestPropertyPrefixCurvesAllocateIdentically is the exactness obligation of
// TotalLatencyPrefixInto's cutoff: PeekaheadIn and PeekaheadQuantizedIn give
// bit-identical allocations on prefix curves and on whole TotalLatencyCurve
// curves, for budgets from nothing to the whole chip.
func TestPropertyPrefixCurvesAllocateIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	const trials = 10000
	var prefix []curves.Curve
	truncated, ties := 0, 0
	for trial := 0; trial < trials; trial++ {
		inst := genLatencyInstance(rng)
		n := len(inst.ratios)
		full := make([]curves.Curve, n)
		prefix = growCurves(&prefix, n)
		cut, tied := false, false
		for i := range full {
			full[i] = TotalLatencyCurve(inst.ratios[i], inst.apkis[i], inst.dist, inst.m, inst.total)
			prefix[i] = TotalLatencyPrefixInto(prefix[i], inst.ratios[i], inst.apkis[i], inst.dist, inst.m, inst.total)
			cut = cut || prefix[i].Len() < full[i].Len()
			tied = tied || (inst.apkis[i] > 0 && hasMinimumTie(full[i]))
		}
		if cut {
			truncated++
		}
		if tied {
			ties++
		}
		var budget float64
		switch rng.Intn(4) {
		case 0:
			budget = 0
		case 1:
			budget = inst.total
		default:
			budget = rng.Float64() * inst.total
		}
		if got, want := PeekaheadIn(nil, prefix, budget), PeekaheadIn(nil, full, budget); !float64sBitEqual(got, want) {
			t.Fatalf("trial %d: PeekaheadIn on prefix curves %v, on whole curves %v", trial, got, want)
		}
		got := PeekaheadQuantizedIn(nil, prefix, budget, inst.bank)
		if want := PeekaheadQuantizedIn(nil, full, budget, inst.bank); !float64sBitEqual(got, want) {
			t.Fatalf("trial %d: PeekaheadQuantizedIn on prefix curves %v, on whole curves %v", trial, got, want)
		}
	}
	// The generator must exercise what the cutoff is about.
	t.Logf("%d of %d trials truncated a curve, %d had a tie at a nonzero curve's minimum", truncated, trials, ties)
	if truncated < trials/2 || ties < trials/10 {
		t.Fatalf("only %d of %d trials truncated a curve and %d had a tie at a nonzero curve's minimum", truncated, trials, ties)
	}
}

// hasMinimumTie reports whether two knots share the curve's minimum cost.
func hasMinimumTie(c curves.Curve) bool {
	_, lo := c.ArgMin()
	seen := 0
	for i := 0; i < c.Len(); i++ {
		if _, y := c.Knot(i); y == lo {
			seen++
		}
	}
	return seen > 1
}
