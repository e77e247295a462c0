package monitor

import (
	"math"
	"math/rand"
	"testing"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
	"cdcs/internal/trace"
)

func TestSolveGamma(t *testing.T) {
	// 64 ways covering 512x the first way's capacity (the paper's 64KB->32MB)
	// should need γ slightly above 0.95.
	g := solveGamma(64, 512)
	if g < 0.93 || g > 0.97 {
		t.Errorf("gamma=%g, want ~0.95", g)
	}
	// Coverage equal to way count: uniform sampling suffices.
	if g := solveGamma(16, 16); g != 1 {
		t.Errorf("degenerate gamma=%g, want 1", g)
	}
	// Verify the solved γ actually covers.
	sum, v := 0.0, 1.0
	for i := 0; i < 64; i++ {
		sum += 1 / v
		v *= g
	}
	if math.Abs(sum-512) > 1 {
		t.Errorf("solved gamma covers %g way0-units, want 512", sum)
	}
}

func TestGMONPaperGeometry(t *testing.T) {
	// The paper's GMON: 1024 tags, 64 ways (16 sets), way 0 models 64KB
	// (1024 lines), full coverage 32MB (524288 lines).
	m := NewGMON(16, 64, 1024, 524288)
	if g := m.Gamma(); g < 0.93 || g > 0.97 {
		t.Errorf("gamma=%g, want ~0.95", g)
	}
	if s := m.sigma; math.Abs(s-1.0/64) > 1e-9 {
		t.Errorf("sample rate %g, want 1/64", s)
	}
	if c := m.WayCapacity(0); math.Abs(c-1024) > 1e-6 {
		t.Errorf("way 0 models %g lines, want 1024", c)
	}
	// Paper: modeled capacity per way grows ~26x across the array.
	growth := m.WayCapacity(63) / m.WayCapacity(0)
	if growth < 20 || growth > 35 {
		t.Errorf("way growth %gx, want ~26x", growth)
	}
	// Paper: ~2.1KB per monitor.
	if b := m.StateBytes(); b < 2000 || b > 2300 {
		t.Errorf("monitor state %dB, want ~2.1KB", b)
	}
	// Total modeled capacity ~32MB.
	total := 0.0
	for w := 0; w < 64; w++ {
		total += m.WayCapacity(w)
	}
	if total < 0.9*524288 || total > 1.1*524288 {
		t.Errorf("total modeled capacity %g lines, want ~524288", total)
	}
}

func TestUMONWayCapacityUniform(t *testing.T) {
	m := NewUMON(16, 8, 8192)
	for w := 0; w < 8; w++ {
		if c := m.WayCapacity(w); math.Abs(c-1024) > 1e-6 {
			t.Errorf("UMON way %d models %g lines, want 1024", w, c)
		}
	}
	if m.Gamma() != 1 {
		t.Errorf("UMON gamma=%g, want 1", m.Gamma())
	}
}

func TestMonitorSamplingRate(t *testing.T) {
	m := NewGMON(16, 16, 1024, 16384) // σ = 16/1024 = 1/64
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		m.Access(cachesim.Addr(rng.Uint64()))
	}
	frac := float64(m.Sampled()) / float64(m.Observed())
	if frac < 0.8/64 || frac > 1.25/64 {
		t.Errorf("sampled fraction %g, want ~1/64", frac)
	}
}

// runMonitored feeds a synthetic stream with the given target curve through a
// monitor and returns the reconstructed curve.
func runMonitored(m *Monitor, target curves.Curve, n int, seed int64) curves.Curve {
	gen := trace.NewGenerator(target, 0, rand.New(rand.NewSource(seed)))
	for i := 0; i < n; i++ {
		m.Access(gen.Next())
	}
	return m.MissRatioCurve()
}

func TestUMONReconstructsCurve(t *testing.T) {
	// Modest domain: 8192 lines, smooth decay curve. A UMON with enough
	// ways should reconstruct it closely at way-boundary capacities.
	target := curves.New(
		[]float64{0, 1024, 2048, 4096, 8192},
		[]float64{0.9, 0.6, 0.4, 0.2, 0.1})
	m := NewUMON(64, 8, 8192)
	got := runMonitored(m, target, 400000, 21)
	for _, x := range []float64{1024, 2048, 4096, 8192} {
		if err := math.Abs(got.Eval(x) - target.Eval(x)); err > 0.08 {
			t.Errorf("UMON error at %g lines: got %.3f want %.3f", x, got.Eval(x), target.Eval(x))
		}
	}
}

func TestGMONReconstructsCurve(t *testing.T) {
	target := curves.New(
		[]float64{0, 256, 1024, 2048, 4096, 8192},
		[]float64{0.95, 0.7, 0.45, 0.3, 0.15, 0.08})
	// GMON: 64 sets × 16 ways, way 0 models 256 lines, covering 8192.
	m := NewGMON(64, 16, 256, 8192)
	got := runMonitored(m, target, 600000, 22)
	for _, x := range []float64{256, 1024, 4096, 8192} {
		if err := math.Abs(got.Eval(x) - target.Eval(x)); err > 0.10 {
			t.Errorf("GMON error at %g lines: got %.3f want %.3f", x, got.Eval(x), target.Eval(x))
		}
	}
}

func TestGMONBeatsCoarseUMONAtSmallSizes(t *testing.T) {
	// The paper's motivation: with few ways, a UMON covering a large cache
	// has no resolution below its first way. A working set far below that
	// boundary is invisible to the UMON but resolved by the GMON.
	target := curves.New(
		[]float64{0, 192, 256, 320, 16384},
		[]float64{0.9, 0.85, 0.1, 0.05, 0.05})

	gmon := NewGMON(64, 16, 128, 16384) // first way models 128 lines
	umon := NewUMON(64, 16, 16384)      // each way models 1024 lines

	const n = 600000
	gc := runMonitored(gmon, target, n, 33)
	uc := runMonitored(umon, target, n, 33)

	// Evaluate fidelity at half the UMON's first-way capacity.
	x := 512.0
	gErr := math.Abs(gc.Eval(x) - target.Eval(x))
	uErr := math.Abs(uc.Eval(x) - target.Eval(x))
	if gErr >= uErr {
		t.Errorf("GMON error %.3f not better than UMON error %.3f at %g lines", gErr, uErr, x)
	}
	if gErr > 0.15 {
		t.Errorf("GMON error %.3f too large at small size", gErr)
	}
}

func TestMissRatioCurveShape(t *testing.T) {
	m := NewGMON(16, 8, 256, 2048)
	// No accesses: all-miss curve.
	c := m.MissRatioCurve()
	if c.Eval(0) != 1 || c.Eval(2048) != 1 {
		t.Errorf("empty monitor curve not all-miss: %v", c.Ys())
	}
	// After traffic: curve starts at 1 at zero capacity, within [0,1].
	gen := trace.NewGenerator(curves.Constant(0.4, 1024), 0, rand.New(rand.NewSource(5)))
	for i := 0; i < 100000; i++ {
		m.Access(gen.Next())
	}
	c = m.MissRatioCurve()
	if y := c.Eval(0); y != 1 {
		t.Errorf("curve at 0 capacity = %g, want 1", y)
	}
	for i := 0; i < c.Len(); i++ {
		_, y := c.Knot(i)
		if y < 0 || y > 1 {
			t.Errorf("curve value %g outside [0,1]", y)
		}
	}
}

func TestMonitorDeterminism(t *testing.T) {
	run := func() curves.Curve {
		m := NewGMON(32, 8, 256, 4096)
		gen := trace.NewGenerator(curves.Constant(0.5, 1024), 7, rand.New(rand.NewSource(9)))
		for i := 0; i < 50000; i++ {
			m.Access(gen.Next())
		}
		return m.MissRatioCurve()
	}
	a, b := run(), run()
	if !curves.Equal(a, b, 0) {
		t.Error("monitor runs with identical seeds diverged")
	}
}

func TestNewMonitorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewUMON(0, 4, 1024) },
		func() { NewUMON(4, 0, 1024) },
		func() { NewUMON(4, 4, 1) }, // σ > 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid monitor construction did not panic")
				}
			}()
			f()
		}()
	}
}
