// Package monitor implements miss-curve monitors: conventional utility
// monitors (UMONs) and the paper's geometric monitors (GMONs, §IV-G).
//
// Both are small tag-only set-associative arrays fed a hash-sampled slice of
// the access stream. A UMON's ways each model a fixed fraction of the target
// cache, so fine granularity over a large LLC needs impractically many ways
// (512 for 64KB resolution over 32MB). A GMON adds a limit register per way
// that geometrically decreases the sampling rate way by way (factor γ), so
// way w models capacity ∝ 1/γ^w: 64 ways cover 64KB…32MB with high
// resolution at small sizes — the paper's key monitoring contribution.
package monitor

import (
	"fmt"
	"math"

	"cdcs/internal/cachesim"
	"cdcs/internal/curves"
)

// invalidTag marks an empty way; real tags are 16-bit hashes stored in
// int32 so the marker cannot collide.
const invalidTag = int32(-1)

// Monitor is a sampled, tag-only LRU array with per-way limit registers.
// With all limits at maximum it behaves as a UMON; with geometrically
// decreasing limits it is a GMON.
type Monitor struct {
	sets int
	ways int

	// sampleThreshold gates which addresses the monitor observes:
	// an address is sampled iff hash32(addr) < sampleThreshold.
	sampleThreshold uint32
	sigma           float64 // sampling rate implied by sampleThreshold

	// limit[w] is the per-way limit register: a tag moving into way w is
	// kept iff its 16-bit hash is below limit[w].
	limit []uint32
	// rate[w] is the survival probability into way w (γ^w for GMONs).
	rate []float64

	// tags[set*ways+w] holds the 16-bit hashed tag at way w (invalidTag if
	// empty). Position within the set is exact LRU order.
	tags []int32

	hits     []int64 // per-way raw hit counts
	sampled  int64   // sampled accesses observed
	observed int64   // all accesses offered (sampled or not)
}

// NewUMON builds a conventional utility monitor: sets×ways tags modeling
// modeledLines of cache with uniform sampling. Each way models
// modeledLines/ways.
func NewUMON(sets, ways int, modeledLines float64) *Monitor {
	sigma := float64(sets*ways) / modeledLines
	limits := make([]float64, ways)
	for i := range limits {
		limits[i] = 1.0
	}
	return newMonitor(sets, ways, sigma, limits)
}

// NewGMON builds a geometric monitor whose first way models way0Lines and
// whose ways jointly cover totalLines: it derives the sampling rate from
// way0Lines and solves for the γ that reaches totalLines (the paper's
// γ≈0.95 for 64 ways over 64KB…32MB).
func NewGMON(sets, ways int, way0Lines, totalLines float64) *Monitor {
	sigma := float64(sets) / way0Lines
	gamma := solveGamma(ways, totalLines/way0Lines)
	limits := make([]float64, ways)
	v := 1.0
	for i := range limits {
		limits[i] = v
		v *= gamma
	}
	return newMonitor(sets, ways, sigma, limits)
}

// newMonitor builds a monitor with explicit per-way survival rates.
func newMonitor(sets, ways int, sigma float64, rates []float64) *Monitor {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("monitor: invalid geometry %dx%d", sets, ways))
	}
	if sigma <= 0 || sigma > 1 {
		panic(fmt.Sprintf("monitor: invalid sampling rate %g", sigma))
	}
	m := &Monitor{
		sets:            sets,
		ways:            ways,
		sampleThreshold: uint32(sigma * float64(math.MaxUint32)),
		sigma:           sigma,
		limit:           make([]uint32, ways),
		rate:            append([]float64(nil), rates...),
		tags:            make([]int32, sets*ways),
		hits:            make([]int64, ways),
	}
	for i := range m.tags {
		m.tags[i] = invalidTag
	}
	for w, r := range rates {
		m.limit[w] = uint32(r * 65536)
	}
	return m
}

// solveGamma finds γ<1 with sum_{w=0..ways-1} γ^-w = coverRatio by bisection
// (coverRatio = totalLines/way0Lines ≥ ways).
func solveGamma(ways int, coverRatio float64) float64 {
	if coverRatio <= float64(ways) {
		return 1 // UMON degenerate: uniform sampling already covers it
	}
	sum := func(g float64) float64 {
		s, v := 0.0, 1.0
		for i := 0; i < ways; i++ {
			s += 1 / v
			v *= g
		}
		return s
	}
	lo, hi := 0.5, 1.0 // sum is decreasing in γ
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if sum(mid) > coverRatio {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Gamma returns the per-way sampling decay (1.0 for UMONs).
func (m *Monitor) Gamma() float64 {
	if m.ways < 2 {
		return 1
	}
	return m.rate[1] / m.rate[0]
}

// Ways returns the way count.
func (m *Monitor) Ways() int { return m.ways }

// hash64 is splitmix64: deterministic, well-mixed, stdlib-only.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Access offers an address to the monitor; it reports whether the address
// was sampled. Monitoring is off the critical path in hardware, so this
// models only state, not latency.
func (m *Monitor) Access(addr cachesim.Addr) bool {
	m.observed++
	h := hash64(uint64(addr))
	if uint32(h) >= m.sampleThreshold {
		return false
	}
	m.sampled++
	set := int((h >> 32) % uint64(m.sets))
	tag16 := int32((h >> 48) & 0xFFFF)
	tags := m.tags[set*m.ways : (set+1)*m.ways]

	// Look up.
	hitWay := -1
	for w, t := range tags {
		if t == tag16 {
			hitWay = w
			break
		}
	}
	if hitWay >= 0 {
		m.hits[hitWay]++
	}

	// Move to front with per-way limit filtering: shifted tags are dropped
	// when their hash exceeds the destination way's limit register, and the
	// shifting process terminates there (paper §IV-G).
	end := m.ways - 1
	if hitWay >= 0 {
		end = hitWay
	}
	carry := tag16
	for w := 0; w <= end; w++ {
		cur := tags[w]
		tags[w] = carry
		if cur == invalidTag {
			// Hole absorbs the shift.
			carry = invalidTag
			break
		}
		if w+1 < m.ways && uint32(cur) >= m.limit[w+1] {
			// cur is filtered out moving into way w+1; terminate.
			carry = invalidTag
			break
		}
		carry = cur
	}
	_ = carry // last tag falls off the end (or was discarded)
	return true
}

// Sampled returns how many accesses were sampled into the monitor.
func (m *Monitor) Sampled() int64 { return m.sampled }

// Observed returns how many accesses were offered.
func (m *Monitor) Observed() int64 { return m.observed }

// WayCapacity returns the real cache capacity (lines) modeled by way w:
// sets/(σ·rate(w)).
func (m *Monitor) WayCapacity(w int) float64 {
	return float64(m.sets) / (m.sigma * m.rate[w])
}

// MissRatioCurve reconstructs the monitored miss-ratio curve. The point for
// cumulative capacity through way w uses hits scaled by the inverse per-way
// sampling rate. With no sampled accesses it returns a flat all-miss curve.
func (m *Monitor) MissRatioCurve() curves.Curve {
	xs := make([]float64, 0, m.ways+1)
	ys := make([]float64, 0, m.ways+1)
	xs = append(xs, 0)
	ys = append(ys, 1)
	if m.sampled == 0 {
		return curves.New([]float64{0, 1}, []float64{1, 1})
	}
	cap := 0.0
	hits := 0.0
	total := float64(m.sampled)
	for w := 0; w < m.ways; w++ {
		cap += m.WayCapacity(w)
		hits += float64(m.hits[w]) / m.rate[w]
		ratio := (total - hits) / total
		if ratio < 0 {
			ratio = 0
		}
		xs = append(xs, cap)
		ys = append(ys, ratio)
	}
	return curves.New(xs, ys)
}

// StateBytes returns the monitor's hardware footprint in bytes: 16-bit tags
// plus one 16-bit limit register per way (paper: 1024 tags × 64 ways ⇒
// ~2.1KB per monitor).
func (m *Monitor) StateBytes() int {
	return m.sets*m.ways*2 + m.ways*2
}
