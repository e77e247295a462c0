// Package workload defines synthetic application profiles and workload mixes.
//
// The paper evaluates on SPEC CPU2006 and SPEC OMP2012, which are proprietary;
// we substitute parameterized synthetic profiles whose miss curves match the
// shapes the paper reports (Fig. 2 gives omnet, milc and ilbdc exactly; the
// others follow published characterizations: streaming, cache-fitting with a
// cliff, friendly with gradual reuse, or insensitive). Each profile captures
// the three quantities that drive every result in the paper: LLC access
// intensity, the miss-ratio curve, and how much latency the core can hide.
package workload

import (
	"fmt"
	"math"

	"cdcs/internal/curves"
)

// LinesPerMB converts capacity in MB to 64-byte cache lines.
const LinesPerMB = 16384

// LineBytes is the cache line size used throughout the model.
const LineBytes = 64

// Class describes the qualitative cache behaviour of an application, in the
// taxonomy CRUISE uses (the paper discusses it in §II-C).
type Class int

const (
	// Streaming apps get no hits regardless of capacity (milc, lbm).
	Streaming Class = iota
	// Fitting apps have a sharp working-set cliff (omnet, xalancbmk).
	Fitting
	// Friendly apps gain gradually with capacity (mcf, bzip2).
	Friendly
	// Insensitive apps have tiny footprints and low intensity (calculix).
	Insensitive
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Streaming:
		return "streaming"
	case Fitting:
		return "fitting"
	case Friendly:
		return "friendly"
	case Insensitive:
		return "insensitive"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Profile is a single-threaded application model. All curves map capacity in
// lines to a miss ratio in [0, 1]; misses per kilo-instruction are
// APKI×ratio.
type Profile struct {
	// Name is the benchmark name (SPEC-like).
	Name string
	// Class is the qualitative cache behaviour.
	Class Class
	// APKI is LLC accesses (L2 misses) per kilo-instruction.
	APKI float64
	// CPIBase is cycles per instruction assuming all LLC accesses hit with
	// zero network latency (core + L1/L2 time).
	CPIBase float64
	// MLP divides exposed miss latency: memory-level parallelism the core
	// extracts on LLC misses (streaming apps overlap many misses).
	MLP float64
	// MissRatio maps LLC capacity in lines to miss ratio.
	MissRatio curves.Curve
}

// MPKI returns misses per kilo-instruction at the given capacity in lines.
func (p *Profile) MPKI(lines float64) float64 {
	return p.APKI * p.MissRatio.Eval(lines)
}

// maxCurveLines bounds profile curve domains: 64 banks × 8192 lines = 32MB.
const maxCurveLines = 64 * 8192

// cliff builds a fitting-app miss-ratio curve: a high plateau that falls
// steeply once the working set fits. The small shoulder below the cliff
// mirrors real set-conflict behaviour and keeps hulls non-degenerate.
func cliff(high, low, footprintLines float64) curves.Curve {
	f := footprintLines
	xs := []float64{0, 0.5 * f, 0.8 * f, 0.95 * f, f, 1.1 * f}
	ys := []float64{high, high * 0.97, high * 0.9, high * 0.5, low * 1.5, low}
	if xs[len(xs)-1] < maxCurveLines {
		xs = append(xs, maxCurveLines)
		ys = append(ys, low)
	}
	return curves.New(xs, ys)
}

// stream builds a streaming miss-ratio curve: flat, no reuse.
func stream(ratio float64) curves.Curve {
	return curves.Constant(ratio, maxCurveLines)
}

// decay builds a friendly-app curve: exponential decay from r0 toward rInf
// with the given half-capacity, sampled at geometrically spaced knots.
func decay(r0, rInf, halfLines float64) curves.Curve {
	const knots = 24
	xs := make([]float64, 0, knots+1)
	ys := make([]float64, 0, knots+1)
	xs = append(xs, 0)
	ys = append(ys, r0)
	x := 1024.0
	for len(xs) <= knots && x < maxCurveLines {
		r := rInf + (r0-rInf)*math.Exp2(-x/halfLines)
		xs = append(xs, x)
		ys = append(ys, r)
		x *= 1.45
	}
	xs = append(xs, maxCurveLines)
	ys = append(ys, rInf+(r0-rInf)*math.Exp2(-maxCurveLines/halfLines))
	return curves.New(xs, ys)
}

// SPECCPU returns the 16 memory-intensive SPEC CPU2006-like profiles the
// paper uses (the ≥5 L2 MPKI subset listed in §V). Miss-curve shapes follow
// Fig. 2 where given (omnet, milc; ilbdc is in SPECOMP) and published
// characterizations otherwise.
func SPECCPU() []*Profile {
	mb := func(m float64) float64 { return m * LinesPerMB }
	return []*Profile{
		// Fig. 2: omnet suffers ~85 MPKI below 2.5MB, then fits.
		{Name: "omnet", Class: Fitting, APKI: 95, CPIBase: 0.70, MLP: 1.4,
			MissRatio: cliff(0.90, 0.02, mb(2.5))},
		// Fig. 2: milc is streaming, ~25 MPKI at any size.
		{Name: "milc", Class: Streaming, APKI: 26, CPIBase: 0.80, MLP: 3.5,
			MissRatio: stream(0.97)},
		{Name: "mcf", Class: Friendly, APKI: 75, CPIBase: 0.75, MLP: 1.6,
			MissRatio: decay(0.85, 0.25, mb(6))},
		{Name: "libquantum", Class: Streaming, APKI: 28, CPIBase: 0.65, MLP: 4.0,
			MissRatio: stream(0.99)},
		{Name: "lbm", Class: Streaming, APKI: 22, CPIBase: 0.75, MLP: 3.8,
			MissRatio: stream(0.95)},
		{Name: "bwaves", Class: Streaming, APKI: 18, CPIBase: 0.85, MLP: 3.2,
			MissRatio: decay(0.92, 0.80, mb(8))},
		{Name: "GemsFDTD", Class: Friendly, APKI: 20, CPIBase: 0.90, MLP: 2.6,
			MissRatio: decay(0.85, 0.30, mb(5))},
		{Name: "zeusmp", Class: Fitting, APKI: 12, CPIBase: 0.85, MLP: 2.4,
			MissRatio: cliff(0.75, 0.12, mb(2))},
		{Name: "cactusADM", Class: Fitting, APKI: 10, CPIBase: 0.95, MLP: 2.0,
			MissRatio: cliff(0.70, 0.08, mb(4))},
		{Name: "leslie3d", Class: Streaming, APKI: 16, CPIBase: 0.85, MLP: 2.8,
			MissRatio: decay(0.88, 0.62, mb(10))},
		{Name: "gcc", Class: Fitting, APKI: 14, CPIBase: 0.80, MLP: 1.8,
			MissRatio: cliff(0.72, 0.06, mb(1))},
		{Name: "bzip2", Class: Friendly, APKI: 11, CPIBase: 0.75, MLP: 1.9,
			MissRatio: decay(0.70, 0.18, mb(3))},
		{Name: "astar", Class: Friendly, APKI: 13, CPIBase: 0.80, MLP: 1.4,
			MissRatio: decay(0.78, 0.15, mb(4))},
		{Name: "sphinx3", Class: Fitting, APKI: 15, CPIBase: 0.80, MLP: 1.7,
			MissRatio: cliff(0.60, 0.04, mb(8))},
		{Name: "xalancbmk", Class: Fitting, APKI: 20, CPIBase: 0.75, MLP: 1.5,
			MissRatio: cliff(0.65, 0.05, mb(6))},
		{Name: "calculix", Class: Insensitive, APKI: 6, CPIBase: 0.70, MLP: 2.0,
			MissRatio: cliff(0.55, 0.05, mb(0.4))},
	}
}

// ByName returns the profile with the given name from the supplied set, or
// nil when absent.
func ByName(profiles []*Profile, name string) *Profile {
	for _, p := range profiles {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// MTProfile is a multithreaded (SPEC OMP2012-like) application model. Each
// thread accesses a thread-private VC and a process-shared VC; the paper's
// §VI-B behaviour is controlled by how intensity splits between them.
type MTProfile struct {
	// Name is the benchmark name.
	Name string
	// Threads is the thread count per instance (8 in the paper's mixes).
	Threads int
	// APKI is total LLC accesses per kilo-instruction per thread.
	APKI float64
	// SharedFrac is the fraction of accesses that go to the shared VC.
	SharedFrac float64
	// CPIBase and MLP are as in Profile.
	CPIBase float64
	MLP     float64
	// PrivRatio is the per-thread private-data miss-ratio curve.
	PrivRatio curves.Curve
	// SharedRatio is the process-wide shared-data miss-ratio curve.
	SharedRatio curves.Curve
}

// SPECOMP returns 8 SPEC OMP2012-like multithreaded profiles. ilbdc matches
// Fig. 2 (512KB shared footprint, low intensity); mgrid/md/nab follow the
// §VI-B case study (mgrid private-heavy and intensive; md, nab shared-heavy).
func SPECOMP() []*MTProfile {
	mb := func(m float64) float64 { return m * LinesPerMB }
	return []*MTProfile{
		{Name: "ilbdc", Threads: 8, APKI: 11, SharedFrac: 0.85, CPIBase: 0.80, MLP: 2.0,
			PrivRatio:   cliff(0.45, 0.05, mb(0.0625)),
			SharedRatio: cliff(0.80, 0.04, mb(0.5))},
		{Name: "mgrid", Threads: 8, APKI: 30, SharedFrac: 0.10, CPIBase: 0.75, MLP: 2.2,
			PrivRatio:   cliff(0.85, 0.06, mb(1.5)),
			SharedRatio: cliff(0.50, 0.10, mb(0.25))},
		{Name: "md", Threads: 8, APKI: 14, SharedFrac: 0.75, CPIBase: 0.85, MLP: 1.8,
			PrivRatio:   cliff(0.50, 0.08, mb(0.125)),
			SharedRatio: decay(0.75, 0.10, mb(1.5))},
		{Name: "nab", Threads: 8, APKI: 12, SharedFrac: 0.70, CPIBase: 0.80, MLP: 1.9,
			PrivRatio:   cliff(0.55, 0.08, mb(0.125)),
			SharedRatio: cliff(0.70, 0.06, mb(1))},
		{Name: "swim", Threads: 8, APKI: 24, SharedFrac: 0.15, CPIBase: 0.80, MLP: 3.0,
			PrivRatio:   stream(0.92),
			SharedRatio: cliff(0.60, 0.10, mb(0.5))},
		{Name: "applu", Threads: 8, APKI: 16, SharedFrac: 0.30, CPIBase: 0.85, MLP: 2.4,
			PrivRatio:   decay(0.80, 0.25, mb(1)),
			SharedRatio: decay(0.70, 0.20, mb(2))},
		{Name: "bt", Threads: 8, APKI: 13, SharedFrac: 0.40, CPIBase: 0.90, MLP: 2.2,
			PrivRatio:   cliff(0.65, 0.10, mb(0.75)),
			SharedRatio: cliff(0.60, 0.08, mb(1.5))},
		{Name: "fma3d", Threads: 8, APKI: 9, SharedFrac: 0.55, CPIBase: 0.85, MLP: 1.8,
			PrivRatio:   cliff(0.50, 0.10, mb(0.25)),
			SharedRatio: decay(0.65, 0.15, mb(2))},
	}
}

// MTByName returns the MT profile with the given name, or nil when absent.
func MTByName(profiles []*MTProfile, name string) *MTProfile {
	for _, p := range profiles {
		if p.Name == name {
			return p
		}
	}
	return nil
}
