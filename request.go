package cdcs

// Serializable request forms for the serving API (cmd/cdcs-serve). A request
// fully determines its result: simulation is bit-deterministic (randomness is
// derived from the request's seeds, never from shared state — see
// internal/sim), so the SHA-256 of a canonicalized request is a correct
// content address for its response and identical requests may be served from
// cache with a byte-identity guarantee.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cdcs/internal/exp"
)

// Mix spec kinds.
const (
	// MixRandom draws N single-threaded apps from seed (see RandomMix).
	MixRandom = "random"
	// MixRandomMT draws N 8-thread apps from seed (see RandomMTMix).
	MixRandomMT = "random-mt"
	// MixApps is an explicit benchmark list (order matters: it fixes thread
	// and VC indices, which seed-driven placement consumes in order).
	MixApps = "apps"
	// MixCaseStudy is the paper's §II-B 36-core mix.
	MixCaseStudy = "casestudy"
)

// AppSpec is one entry of an explicit mix: Count instances of a benchmark.
type AppSpec struct {
	Bench string `json:"bench"`
	Count int    `json:"count"`
	// MT selects the 8-thread profile set (see MTBenchmarks).
	MT bool `json:"mt,omitempty"`
}

// MixSpec is the serializable description of a workload mix.
type MixSpec struct {
	// Kind is one of MixRandom, MixRandomMT, MixApps, MixCaseStudy.
	Kind string `json:"kind"`
	// Seed drives random mixes (MixRandom, MixRandomMT).
	Seed int64 `json:"seed,omitempty"`
	// N is the app count for random mixes.
	N int `json:"n,omitempty"`
	// Apps is the explicit list for MixApps.
	Apps []AppSpec `json:"apps,omitempty"`
}

// normalize zeroes fields the kind does not consume, so two specs that build
// the same mix hash identically, and defaults Count for explicit entries.
func (s MixSpec) normalize() (MixSpec, error) {
	switch s.Kind {
	case MixRandom, MixRandomMT:
		if s.N < 1 {
			return s, fmt.Errorf("cdcs: %s mix needs n >= 1", s.Kind)
		}
		s.Apps = nil
	case MixApps:
		if len(s.Apps) == 0 {
			return s, fmt.Errorf("cdcs: apps mix needs a non-empty app list")
		}
		s.Seed, s.N = 0, 0
		apps := make([]AppSpec, len(s.Apps))
		for i, a := range s.Apps {
			if a.Count == 0 {
				a.Count = 1
			}
			if a.Count < 0 {
				return s, fmt.Errorf("cdcs: app %q has negative count", a.Bench)
			}
			apps[i] = a
		}
		s.Apps = apps
	case MixCaseStudy:
		s.Seed, s.N, s.Apps = 0, 0, nil
	case "":
		return s, fmt.Errorf("cdcs: mix spec needs a kind (one of %q, %q, %q, %q)",
			MixRandom, MixRandomMT, MixApps, MixCaseStudy)
	default:
		return s, fmt.Errorf("cdcs: unknown mix kind %q", s.Kind)
	}
	return s, nil
}

// Label returns a short human-readable descriptor of the mix, for table
// rows and progress lines ("random(seed 7, n 16)", "apps(2xomnet,1xmilc)").
func (s MixSpec) Label() string {
	switch s.Kind {
	case MixRandom, MixRandomMT:
		return fmt.Sprintf("%s(seed %d, n %d)", s.Kind, s.Seed, s.N)
	case MixApps:
		parts := make([]string, len(s.Apps))
		for i, a := range s.Apps {
			n := a.Count
			if n == 0 {
				n = 1
			}
			suffix := ""
			if a.MT {
				suffix = ":mt"
			}
			parts[i] = fmt.Sprintf("%dx%s%s", n, a.Bench, suffix)
		}
		return "apps(" + strings.Join(parts, ",") + ")"
	default:
		return s.Kind
	}
}

// Validate returns the error Build would return, without materializing the
// mix. Random and case-study kinds cannot fail once normalized; an explicit
// app list fails on its first unknown benchmark name.
func (s MixSpec) Validate() error {
	ns, err := s.normalize()
	if err != nil || ns.Kind != MixApps {
		return err
	}
	for _, a := range ns.Apps {
		if a.MT {
			_, err = mtProfile(a.Bench)
		} else {
			_, err = stProfile(a.Bench)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Build materializes the mix. It validates benchmark names, so an invalid
// spec fails here rather than mid-simulation.
func (s MixSpec) Build() (*Mix, error) {
	ns, err := s.normalize()
	if err != nil {
		return nil, err
	}
	switch ns.Kind {
	case MixRandom:
		return RandomMix(ns.Seed, ns.N)
	case MixRandomMT:
		return RandomMTMix(ns.Seed, ns.N)
	case MixApps:
		m := NewMix()
		for _, a := range ns.Apps {
			if a.MT {
				err = m.AddMT(a.Bench, a.Count)
			} else {
				err = m.Add(a.Bench, a.Count)
			}
			if err != nil {
				return nil, err
			}
		}
		if m.Threads() == 0 {
			return nil, fmt.Errorf("cdcs: apps mix resolved to zero threads")
		}
		return m, nil
	case MixCaseStudy:
		return CaseStudyMix(), nil
	}
	return nil, fmt.Errorf("cdcs: unknown mix kind %q", ns.Kind) // unreachable after normalize
}

// SchemeByName resolves a scheme's display name ("S-NUCA", "R-NUCA",
// "Jigsaw+C", "Jigsaw+R", "CDCS") to the Scheme value.
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Name() == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// SchemeNames lists the standard scheme names in the paper's order.
func SchemeNames() []string {
	ss := Schemes()
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name()
	}
	return out
}

// CompareRequest is the canonical form of a Compare call: config, mix,
// scheme set and seed. It round-trips through JSON, and Hash gives its
// content address.
type CompareRequest struct {
	// Config is the machine model; nil means DefaultConfig.
	Config *Config `json:"config,omitempty"`
	// Mix describes the workload.
	Mix MixSpec `json:"mix"`
	// Schemes lists scheme names; the first is the baseline. Empty means all
	// five standard schemes (S-NUCA baseline).
	Schemes []string `json:"schemes,omitempty"`
	// Seed drives thread placement: scheme i runs with Seed+i.
	Seed int64 `json:"seed"`
}

// Canonical validates the request and fills defaults (DefaultConfig, the
// standard scheme list), so that requests differing only in how defaults were
// spelled hash identically.
func (r CompareRequest) Canonical() (CompareRequest, error) {
	if r.Config == nil {
		c := DefaultConfig()
		r.Config = &c
	} else {
		c := *r.Config // don't alias the caller's struct
		r.Config = &c
	}
	if err := r.Config.validate(); err != nil {
		return r, err
	}
	mix, err := r.Mix.normalize()
	if err != nil {
		return r, err
	}
	r.Mix = mix
	if len(r.Schemes) == 0 {
		r.Schemes = SchemeNames()
	} else {
		r.Schemes = append([]string(nil), r.Schemes...)
		for _, name := range r.Schemes {
			if _, ok := SchemeByName(name); !ok {
				return r, fmt.Errorf("cdcs: unknown scheme %q (known: %v)", name, SchemeNames())
			}
		}
	}
	return r, nil
}

// Hash returns the request's content address: the SHA-256 of the canonical
// request, hex-encoded. Two requests hash equal iff they ask for the same
// computation — JSON field order, omitted defaults and spelled-out defaults
// do not matter. Execution options (parallelism, timeouts) are deliberately
// not part of the request: results are bit-identical for any worker count.
func (r CompareRequest) Hash() (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	return hashJSON("compare/v1", c)
}

// Run executes the canonicalized request.
func (r CompareRequest) Run(opts RunOptions) (*Comparison, error) {
	c, err := r.Canonical()
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(*c.Config)
	if err != nil {
		return nil, err
	}
	mix, err := c.Mix.Build()
	if err != nil {
		return nil, err
	}
	schemes := make([]Scheme, len(c.Schemes))
	for i, name := range c.Schemes {
		schemes[i], _ = SchemeByName(name) // validated by Canonical
	}
	return sys.CompareWithOptions(mix, c.Seed, opts, schemes...)
}

// ExperimentRequest is the canonical form of an Experiment call. Experiments
// are addressed by id (see ExperimentIDs).
type ExperimentRequest struct {
	ID string `json:"id"`
	// Quick trims mix counts for fast smoke runs.
	Quick bool `json:"quick,omitempty"`
	// Mixes overrides the number of mixes per point when > 0.
	Mixes int `json:"mixes,omitempty"`
	// Seed anchors all randomness; 0 means 1 (the default seed).
	Seed int64 `json:"seed,omitempty"`
}

// KnownExperiment reports whether id names a registered experiment (see
// ExperimentIDs).
func KnownExperiment(id string) bool {
	ids := ExperimentIDs()
	i := sort.SearchStrings(ids, id)
	return i < len(ids) && ids[i] == id
}

// Canonical validates the request and fills the default seed. The experiment
// id must exist (use ExperimentIDs to list).
func (r ExperimentRequest) Canonical() (ExperimentRequest, error) {
	if r.ID == "" {
		return r, fmt.Errorf("cdcs: experiment request needs an id")
	}
	if !KnownExperiment(r.ID) {
		return r, fmt.Errorf("cdcs: unknown experiment %q", r.ID)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Mixes < 0 {
		return r, fmt.Errorf("cdcs: negative mix count %d", r.Mixes)
	}
	// A spelled-out default mix count runs the identical computation as an
	// omitted one, so it must hash to the same content address.
	def := exp.DefaultOptions()
	if r.Quick {
		def = exp.QuickOptions()
	}
	if r.Mixes == def.Mixes {
		r.Mixes = 0
	}
	return r, nil
}

// Hash returns the request's content address (see CompareRequest.Hash).
func (r ExperimentRequest) Hash() (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	return hashJSON("experiment/v1", c)
}

// Run executes the canonicalized request and returns the formatted report.
func (r ExperimentRequest) Run(opts RunOptions) (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	eo := exp.DefaultOptions()
	if c.Quick {
		eo = exp.QuickOptions()
	}
	if c.Mixes > 0 {
		eo.Mixes = c.Mixes
	}
	eo.Seed = c.Seed
	eo.Parallelism = opts.Parallelism
	eo.Context = opts.Context
	eo.Progress = opts.Progress
	rep, err := exp.Run(c.ID, eo)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// hashJSON hashes a domain-separation tag plus the canonical JSON encoding.
// encoding/json writes struct fields in declaration order, so the encoding —
// and therefore the hash — is deterministic and independent of the field
// order of whatever document the value was parsed from.
func hashJSON(tag string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(tag))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}
