package workload

import (
	"cdcs/internal/curves"
)

// Phase describes one program phase: a miss-ratio curve, an intensity, and a
// duration in reconfiguration epochs. The paper evaluates on SPEC, which is
// stable over long phases, and notes (§VI-C) that its reconfiguration-
// overhead results "may underestimate overheads for apps with more
// time-varying behavior" — PhasedProfile exists to explore exactly that.
type Phase struct {
	// MissRatio is the phase's miss-ratio curve.
	MissRatio curves.Curve
	// APKI is the phase's access intensity.
	APKI float64
	// Epochs is how many reconfiguration intervals the phase lasts.
	Epochs int
}

// PhasedProfile is an application that cycles through phases. At any epoch
// it presents a plain Profile; reconfiguration quality then depends on how
// quickly the runtime tracks the phase changes.
type PhasedProfile struct {
	// Name is the synthetic benchmark name.
	Name string
	// CPIBase and MLP are phase-independent core parameters.
	CPIBase float64
	MLP     float64
	// Phases cycle in order.
	Phases []Phase
}

// At returns the profile in effect at the given epoch (phases cycle).
func (p *PhasedProfile) At(epoch int) *Profile {
	if len(p.Phases) == 0 {
		panic("workload: phased profile with no phases")
	}
	e := epoch % p.TotalEpochs()
	for _, ph := range p.Phases {
		if e < ph.Epochs {
			return &Profile{
				Name:      p.Name,
				Class:     Fitting,
				APKI:      ph.APKI,
				CPIBase:   p.CPIBase,
				MLP:       p.MLP,
				MissRatio: ph.MissRatio,
			}
		}
		e -= ph.Epochs
	}
	// Unreachable: e < total by construction.
	panic("workload: phase accounting broken")
}

// TotalEpochs returns the cycle length of the phase sequence.
func (p *PhasedProfile) TotalEpochs() int {
	total := 0
	for _, ph := range p.Phases {
		total += ph.Epochs
	}
	return total
}

// PhasedSet returns synthetic phased applications: working sets that grow,
// shrink, and alternate between streaming and fitting — the adversarial
// input for reconfiguration schemes, since every phase change relocates
// capacity.
func PhasedSet() []*PhasedProfile {
	mb := func(m float64) float64 { return m * LinesPerMB }
	return []*PhasedProfile{
		{
			Name: "pulse", CPIBase: 0.75, MLP: 1.6,
			Phases: []Phase{
				{MissRatio: cliff(0.85, 0.03, mb(0.5)), APKI: 40, Epochs: 2},
				{MissRatio: cliff(0.85, 0.03, mb(4)), APKI: 40, Epochs: 2},
			},
		},
		{
			Name: "drift", CPIBase: 0.80, MLP: 1.8,
			Phases: []Phase{
				{MissRatio: cliff(0.75, 0.05, mb(1)), APKI: 30, Epochs: 3},
				{MissRatio: cliff(0.75, 0.05, mb(2)), APKI: 30, Epochs: 3},
				{MissRatio: cliff(0.75, 0.05, mb(3)), APKI: 30, Epochs: 3},
			},
		},
		{
			Name: "burst", CPIBase: 0.70, MLP: 2.5,
			Phases: []Phase{
				{MissRatio: stream(0.95), APKI: 25, Epochs: 4},
				{MissRatio: cliff(0.80, 0.04, mb(2.5)), APKI: 80, Epochs: 2},
			},
		},
		{
			Name: "steady", CPIBase: 0.80, MLP: 2.0,
			Phases: []Phase{
				{MissRatio: cliff(0.70, 0.05, mb(1.5)), APKI: 20, Epochs: 1},
			},
		},
	}
}
