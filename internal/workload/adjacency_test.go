package workload

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestGeneratedMixesValidate runs Validate's adjacency invariants over every
// mix generator in the package.
func TestGeneratedMixesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, m := range map[string]*Mix{
		"RandomST":       RandomST(rng, SPECCPU(), 64),
		"RandomMT":       RandomMT(rng, SPECOMP(), 6),
		"CaseStudy":      CaseStudy(),
		"Fig16CaseStudy": Fig16CaseStudy(),
		"mixed":          NewMix().AddST(SPECCPU()[0]).AddMT(SPECOMP()[1]).AddST(SPECCPU()[2]),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestAddMTSharedFirst pins the order AddMT builds: each thread lists
// [shared, private], and the shared VC lists its threads in id order.
func TestAddMTSharedFirst(t *testing.T) {
	p := MTByName(SPECOMP(), "ilbdc")
	m := NewMix().AddST(SPECCPU()[0]).AddMT(p)
	shID := 1
	if m.VCs[shID].Kind != ProcessShared {
		t.Fatalf("VC %d is %v, want shared", shID, m.VCs[shID].Kind)
	}
	wantThreads := make([]int, p.Threads)
	for i := range wantThreads {
		wantThreads[i] = 1 + i
	}
	if !slices.Equal(m.VCs[shID].Threads, wantThreads) {
		t.Fatalf("shared VC accessors %v, want %v", m.VCs[shID].Threads, wantThreads)
	}
	for i := 0; i < p.Threads; i++ {
		th := &m.Threads[1+i]
		if want := []int{shID, shID + 1 + i}; !slices.Equal(th.VCs, want) {
			t.Fatalf("thread %d VCs %v, want %v", th.ID, th.VCs, want)
		}
		if want := []float64{p.APKI * p.SharedFrac, p.APKI * (1 - p.SharedFrac)}; !slices.Equal(th.Rates, want) {
			t.Fatalf("thread %d rates %v, want %v", th.ID, th.Rates, want)
		}
	}
}

// TestValidateRejectsBrokenAdjacency breaks one invariant at a time on a
// fresh MT mix and checks Validate names it.
func TestValidateRejectsBrokenAdjacency(t *testing.T) {
	build := func() *Mix {
		// Private copies of every list, so a mutation touches one edge only.
		m := NewMix().AddMT(MTByName(SPECOMP(), "ilbdc"))
		for i := range m.VCs {
			m.VCs[i].Threads = slices.Clone(m.VCs[i].Threads)
			m.VCs[i].Rates = slices.Clone(m.VCs[i].Rates)
		}
		for i := range m.Threads {
			m.Threads[i].VCs = slices.Clone(m.Threads[i].VCs)
			m.Threads[i].Rates = slices.Clone(m.Threads[i].Rates)
		}
		return m
	}
	for _, tc := range []struct {
		name   string
		break_ func(m *Mix)
		want   string
	}{
		{"thread list descending", func(m *Mix) {
			th := &m.Threads[0]
			th.VCs[0], th.VCs[1] = th.VCs[1], th.VCs[0]
			th.Rates[0], th.Rates[1] = th.Rates[1], th.Rates[0]
		}, "not ascending"},
		{"VC list descending", func(m *Mix) {
			v := &m.VCs[0]
			v.Threads[0], v.Threads[1] = v.Threads[1], v.Threads[0]
		}, "not ascending"},
		{"rate mismatch", func(m *Mix) { m.VCs[0].Rates[3] += 1e-12 }, "rate mismatch"},
		{"missing reverse edge", func(m *Mix) {
			m.VCs[0].Threads = m.VCs[0].Threads[1:]
			m.VCs[0].Rates = m.VCs[0].Rates[1:]
		}, "missing reverse edge"},
		{"extra VC edge", func(m *Mix) {
			v := &m.VCs[1] // thread 0's private VC gains thread 1
			v.Threads = append(v.Threads, 1)
			v.Rates = append(v.Rates, 1)
		}, "edges"},
		{"rates shorter than ids", func(m *Mix) { m.Threads[2].Rates = m.Threads[2].Rates[:1] }, "rates"},
		{"VC rates shorter than ids", func(m *Mix) { m.VCs[2].Rates = nil }, "rates"},
	} {
		m := build()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: unbroken mix fails: %v", tc.name, err)
		}
		tc.break_(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
