package cdcs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// mustHash unmarshals a JSON compare request and hashes it.
func mustHash(t *testing.T, doc string) string {
	t.Helper()
	var req CompareRequest
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatalf("unmarshal %s: %v", doc, err)
	}
	h, err := req.Hash()
	if err != nil {
		t.Fatalf("hash %s: %v", doc, err)
	}
	return h
}

func TestCompareRequestHashStableAcrossFieldOrder(t *testing.T) {
	// The same request with JSON fields (and nested fields) in different
	// orders must produce the same content address.
	a := mustHash(t, `{
		"mix": {"kind": "random", "seed": 7, "n": 16},
		"schemes": ["S-NUCA", "CDCS"],
		"seed": 3
	}`)
	b := mustHash(t, `{
		"seed": 3,
		"schemes": ["S-NUCA", "CDCS"],
		"mix": {"n": 16, "seed": 7, "kind": "random"}
	}`)
	if a != b {
		t.Errorf("field order changed the hash: %s vs %s", a, b)
	}
}

func TestCompareRequestHashDefaultsSpelledOutOrOmitted(t *testing.T) {
	cfg := DefaultConfig()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit default config + explicit full scheme list == omitted both.
	a := mustHash(t, `{"mix": {"kind": "casestudy"}, "seed": 1,
		"config": `+string(cfgJSON)+`,
		"schemes": ["S-NUCA", "R-NUCA", "Jigsaw+C", "Jigsaw+R", "CDCS"]}`)
	b := mustHash(t, `{"mix": {"kind": "casestudy"}, "seed": 1}`)
	if a != b {
		t.Errorf("spelled-out defaults changed the hash: %s vs %s", a, b)
	}
}

func TestCompareRequestHashSensitivity(t *testing.T) {
	base := `{"mix": {"kind": "random", "seed": 7, "n": 16}, "seed": 3}`
	h0 := mustHash(t, base)
	for name, doc := range map[string]string{
		"seed":       `{"mix": {"kind": "random", "seed": 7, "n": 16}, "seed": 4}`,
		"mix seed":   `{"mix": {"kind": "random", "seed": 8, "n": 16}, "seed": 3}`,
		"mix count":  `{"mix": {"kind": "random", "seed": 7, "n": 17}, "seed": 3}`,
		"mix kind":   `{"mix": {"kind": "random-mt", "seed": 7, "n": 16}, "seed": 3}`,
		"scheme set": `{"mix": {"kind": "random", "seed": 7, "n": 16}, "schemes": ["S-NUCA", "CDCS"], "seed": 3}`,
		"config":     `{"config": {"mesh_width": 4, "mesh_height": 4, "bank_kb": 512, "bank_latency": 9, "hop_latency": 4, "mem_latency": 120, "mem_channels": 8}, "mix": {"kind": "random", "seed": 7, "n": 16}, "seed": 3}`,
	} {
		if h := mustHash(t, doc); h == h0 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestCompareRequestHashIgnoresUnusedMixFields(t *testing.T) {
	// casestudy ignores seed/n/apps; they must not leak into the hash.
	a := mustHash(t, `{"mix": {"kind": "casestudy", "seed": 9, "n": 4}, "seed": 1}`)
	b := mustHash(t, `{"mix": {"kind": "casestudy"}, "seed": 1}`)
	if a != b {
		t.Errorf("unused mix fields leaked into the hash")
	}
}

func TestCompareRequestValidation(t *testing.T) {
	for name, req := range map[string]CompareRequest{
		"no mix kind":     {Seed: 1},
		"bad mix kind":    {Mix: MixSpec{Kind: "nope", N: 4}},
		"random no n":     {Mix: MixSpec{Kind: MixRandom, Seed: 1}},
		"apps empty":      {Mix: MixSpec{Kind: MixApps}},
		"unknown scheme":  {Mix: MixSpec{Kind: MixCaseStudy}, Schemes: []string{"NUCA-9000"}},
		"invalid config":  {Mix: MixSpec{Kind: MixCaseStudy}, Config: &Config{MeshWidth: -1}},
		"negative counts": {Mix: MixSpec{Kind: MixApps, Apps: []AppSpec{{Bench: "omnet", Count: -2}}}},
	} {
		if _, err := req.Canonical(); err == nil {
			t.Errorf("%s: Canonical() accepted an invalid request", name)
		}
	}
}

// TestConfigValidationParity pins that request canonicalization, which
// validates a config without building a System, rejects exactly what
// NewSystem rejects, with the same error.
func TestConfigValidationParity(t *testing.T) {
	valid := DefaultConfig()
	for name, mutate := range map[string]func(*Config){
		"zero width":      func(c *Config) { c.MeshWidth = 0 },
		"negative width":  func(c *Config) { c.MeshWidth = -1 },
		"zero height":     func(c *Config) { c.MeshHeight = 0 },
		"negative height": func(c *Config) { c.MeshHeight = -3 },
		"zero bank":       func(c *Config) { c.BankKB = 0 },
		"negative bank":   func(c *Config) { c.BankKB = -512 },
		"mesh and bank":   func(c *Config) { c.MeshWidth, c.BankKB = 0, 0 },
	} {
		cfg := valid
		mutate(&cfg)
		_, sysErr := NewSystem(cfg)
		_, reqErr := CompareRequest{Mix: MixSpec{Kind: MixCaseStudy}, Config: &cfg}.Canonical()
		if sysErr == nil || reqErr == nil {
			t.Errorf("%s: NewSystem err=%v, Canonical err=%v; want both to fail", name, sysErr, reqErr)
			continue
		}
		if sysErr.Error() != reqErr.Error() {
			t.Errorf("%s: NewSystem err %q, Canonical err %q", name, sysErr, reqErr)
		}
	}
}

func TestMixSpecBuildApps(t *testing.T) {
	m, err := MixSpec{Kind: MixApps, Apps: []AppSpec{
		{Bench: "omnet", Count: 2},
		{Bench: "milc"}, // count defaults to 1
	}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Apps() != 3 {
		t.Errorf("Apps=%d, want 3", m.Apps())
	}
	if _, err := (MixSpec{Kind: MixApps, Apps: []AppSpec{{Bench: "no-such-bench"}}}).Build(); err == nil {
		t.Error("Build accepted an unknown benchmark")
	}
	if _, err := (MixSpec{Kind: MixApps, Apps: []AppSpec{{Bench: "omnet", Count: 0}, {Bench: "milc", Count: 0}}}).Build(); err != nil {
		// Count 0 defaults to 1, so this is two apps, not zero threads.
		t.Errorf("Build rejected defaulted counts: %v", err)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range SchemeNames() {
		s, ok := SchemeByName(name)
		if !ok || s.Name() != name {
			t.Errorf("SchemeByName(%q) = %q, %v", name, s.Name(), ok)
		}
	}
	if _, ok := SchemeByName("bogus"); ok {
		t.Error("SchemeByName accepted an unknown name")
	}
}

func TestExperimentRequestHashAndValidation(t *testing.T) {
	h1, err := ExperimentRequest{ID: "fig11", Quick: true}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0 canonicalizes to 1.
	h2, err := ExperimentRequest{ID: "fig11", Quick: true, Seed: 1}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("default seed hashed differently from explicit seed 1")
	}
	h3, err := ExperimentRequest{ID: "fig11", Quick: true, Mixes: 2}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Errorf("mix override did not change the hash")
	}
	// Spelling out the default mix count (QuickOptions uses 8) is the same
	// computation, so it must be the same content address.
	h4, err := ExperimentRequest{ID: "fig11", Quick: true, Mixes: 8}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 != h1 {
		t.Errorf("spelled-out default mix count hashed differently")
	}
	if _, err := (ExperimentRequest{ID: "nope"}).Hash(); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment id: err=%v", err)
	}
	if _, err := (ExperimentRequest{}).Hash(); err == nil {
		t.Error("empty experiment id accepted")
	}
}

func TestCompareRequestRunMatchesDirectCompare(t *testing.T) {
	// The request path must reproduce a direct library call bit for bit —
	// this is what makes cached responses trustworthy.
	req := CompareRequest{
		Mix:     MixSpec{Kind: MixRandom, Seed: 5, N: 8},
		Schemes: []string{"S-NUCA", "CDCS"},
		Seed:    2,
	}
	got, err := req.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := RandomMix(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DefaultSystem().Compare(mix, 2, SNUCA, CDCS)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("request path diverged from direct Compare:\n%s\nvs\n%s", gj, wj)
	}
}

func TestMixSpecValidateMatchesBuild(t *testing.T) {
	// Validate must fail exactly when Build fails, with the same error, so
	// the server can reject a bad spec without materializing the mix.
	specs := []MixSpec{
		{Kind: MixRandom, Seed: 1, N: 64},
		{Kind: MixRandom, Seed: 1, N: 0},
		{Kind: MixRandomMT, Seed: 2, N: 8},
		{Kind: MixRandomMT, N: -1},
		{Kind: MixCaseStudy, Seed: 9},
		{Kind: MixApps, Apps: []AppSpec{{Bench: "omnet", Count: 2}, {Bench: "ilbdc", MT: true}}},
		{Kind: MixApps, Apps: []AppSpec{{Bench: "omnet"}, {Bench: "no-such"}, {Bench: "nor-this", MT: true}}},
		{Kind: MixApps, Apps: []AppSpec{{Bench: "no-such-mt", MT: true}}},
		{Kind: MixApps, Apps: []AppSpec{{Bench: "ilbdc"}}},           // an MT name as ST
		{Kind: MixApps, Apps: []AppSpec{{Bench: "omnet", MT: true}}}, // an ST name as MT
		{Kind: MixApps, Apps: []AppSpec{{Bench: "omnet", Count: -1}}},
		{Kind: MixApps},
		{Kind: ""},
		{Kind: "wat"},
	}
	for _, s := range specs {
		_, buildErr := s.Build()
		valErr := s.Validate()
		if (buildErr == nil) != (valErr == nil) || (buildErr != nil && buildErr.Error() != valErr.Error()) {
			t.Errorf("%+v: Validate %v, Build %v", s, valErr, buildErr)
		}
	}
}

// TestServedCellsConcurrentMatchAlone serves compare requests of three chip
// sizes from several goroutines at once, so they borrow and return arenas
// of the process cache and share topologies, and checks every body against
// the body of the same request served alone. Run it under -race.
func TestServedCellsConcurrentMatchAlone(t *testing.T) {
	sized := func(side, apps int, schemes ...string) CompareRequest {
		cfg := DefaultConfig()
		cfg.MeshWidth, cfg.MeshHeight = side, side
		return CompareRequest{
			Config:  &cfg,
			Mix:     MixSpec{Kind: MixRandom, Seed: int64(side), N: apps},
			Schemes: schemes,
			Seed:    3,
		}
	}
	reqs := []CompareRequest{
		{Mix: MixSpec{Kind: MixRandom, Seed: 8, N: 64}, Seed: 3},
		{Mix: MixSpec{Kind: MixRandomMT, Seed: 9, N: 8}, Seed: 3},
		sized(32, 64, "S-NUCA", "R-NUCA", "Jigsaw+R", "CDCS"),
		sized(96, 96, "S-NUCA", "CDCS"),
	}
	body := func(req CompareRequest, parallelism int) (string, error) {
		cmp, err := req.Run(RunOptions{Parallelism: parallelism})
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(cmp)
		return string(b), err
	}
	alone := make([]string, len(reqs))
	for i, req := range reqs {
		var err error
		if alone[i], err = body(req, 1); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (g + k) % len(reqs)
				got, err := body(reqs[i], 1+g%2)
				if err != nil {
					t.Error(err)
					return
				}
				if got != alone[i] {
					t.Errorf("goroutine %d, request %d: body differs from the request served alone", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
