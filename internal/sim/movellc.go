package sim

import (
	"fmt"

	"cdcs/internal/cachesim"
	"cdcs/internal/vtb"
)

// MoveLLC couples a VTB with real per-bank cache arrays and implements the
// incremental-reconfiguration protocol of §IV-H at the state level: while
// shadow descriptors are active, a miss in a line's new bank checks the old
// bank; an old-bank hit moves the line (demand move), otherwise the access
// goes to memory. Background invalidation walks the arrays set by set,
// dropping lines whose current home is elsewhere. Bank partitions are keyed
// by VC id.
type MoveLLC struct {
	banks []*cachesim.Bank
	vtb   *vtb.VTB

	// walkSet is the background-invalidation cursor (sets walked so far).
	walkSet int

	// Statistics.
	Hits        int64
	DemandMoves int64
	Misses      int64
	BGInvals    int64
}

// NewMoveLLC builds an LLC of n banks with the given geometry and a VTB with
// room for all VCs.
func NewMoveLLC(nBanks, sets, ways, vcs int) *MoveLLC {
	banks := make([]*cachesim.Bank, nBanks)
	for i := range banks {
		banks[i] = cachesim.NewBank(sets, ways)
	}
	return &MoveLLC{banks: banks, vtb: vtb.New(vcs)}
}

// Install sets a VC's descriptor (starting a reconfiguration when the VC
// already had one) and sizes the bank partitions to the descriptor's
// fractions.
func (l *MoveLLC) Install(vc int, d vtb.Descriptor, totalLines float64) error {
	if err := l.vtb.Install(vc, d); err != nil {
		return err
	}
	for b, frac := range d.Fractions() {
		if b < 0 || b >= len(l.banks) {
			return fmt.Errorf("sim: descriptor names bank %d of %d", b, len(l.banks))
		}
		l.banks[b].SetTarget(cachesim.PartID(vc), int(frac*totalLines))
	}
	l.walkSet = 0
	return nil
}

// Access performs one LLC access for a VC: the §IV-H two-virtual-level
// lookup. It reports whether the access hit (demand moves count as hits —
// the data was on chip).
func (l *MoveLLC) Access(vc int, addr cachesim.Addr) (bool, error) {
	cur, old, moved, err := l.vtb.Lookup(vc, addr)
	if err != nil {
		return false, err
	}
	part := cachesim.PartID(vc)
	if l.banks[cur.Bank].Contains(addr) {
		l.banks[cur.Bank].Access(addr, part)
		l.Hits++
		return true, nil
	}
	if moved && l.banks[old.Bank].Contains(addr) {
		// Demand move: old bank invalidates its copy; the line (and its
		// coherence state) installs at the new home.
		l.banks[old.Bank].InvalidateAddr(addr)
		l.banks[cur.Bank].Access(addr, part)
		l.DemandMoves++
		l.Hits++
		return true, nil
	}
	// Miss: fetch from memory into the current home.
	l.banks[cur.Bank].Access(addr, part)
	l.Misses++
	return false, nil
}

// BackgroundStep walks one set in every bank, invalidating lines whose
// current home is a different bank (the §IV-H background invalidation).
// It returns true while the walk is still in progress.
func (l *MoveLLC) BackgroundStep() bool {
	if !l.vtb.ShadowActive() {
		return false
	}
	sets := l.banks[0].Sets()
	if l.walkSet >= sets {
		// Walk complete: drop shadows; cores resume single-level lookups.
		l.vtb.ClearShadows()
		return false
	}
	for bi, bank := range l.banks {
		n := bank.WalkSet(l.walkSet, func(addr cachesim.Addr, p cachesim.PartID) bool {
			cur, _, _, err := l.vtb.Lookup(int(p), addr)
			if err != nil {
				// Lines of unknown VCs (stale partitions) are dropped.
				return false
			}
			return cur.Bank == bi
		})
		l.BGInvals += int64(n)
	}
	l.walkSet++
	return true
}

// Reconfiguring reports whether shadow descriptors are still active.
func (l *MoveLLC) Reconfiguring() bool { return l.vtb.ShadowActive() }

// Resident returns how many banks currently hold addr (coherence invariant:
// at most one).
func (l *MoveLLC) Resident(addr cachesim.Addr) int {
	n := 0
	for _, b := range l.banks {
		if b.Contains(addr) {
			n++
		}
	}
	return n
}
