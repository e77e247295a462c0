package sim

import (
	"math/rand"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
	"cdcs/internal/monitor"
	"cdcs/internal/trace"
)

// MonitoredCurve samples one VC's miss curve the way the hardware would
// (Fig. 4's first stage): a synthetic address stream with the VC's true
// stack-distance profile drives a GMON, and the monitor's reconstructed
// curve is returned. base separates the VC's address space.
func MonitoredCurve(trueCurve curves.Curve, totalLines float64, accesses int, base cachesim.Addr, seed int64) curves.Curve {
	// Paper geometry scaled to the curve's domain: way 0 models 1/512 of
	// the covered capacity (64KB of 32MB), floor 64 lines for tiny VCs.
	way0 := totalLines / 512
	if way0 < 64 {
		way0 = 64
	}
	m := monitor.NewGMON(16, 64, way0, totalLines)
	gen := trace.NewGenerator(trueCurve, base, rand.New(rand.NewSource(seed)))
	for i := 0; i < accesses; i++ {
		m.Access(gen.Next())
	}
	return m.MissRatioCurve()
}

// CurveError returns the mean absolute error between two miss-ratio curves
// sampled at geometric capacities up to maxLines.
func CurveError(a, b curves.Curve, maxLines float64) float64 {
	sum, n := 0.0, 0
	for x := 256.0; x <= maxLines; x *= 2 {
		d := a.Eval(x) - b.Eval(x)
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
