package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"cdcs/internal/server"
)

// smokeScale runs every part of a workload at the smallest useful size.
var smokeScale = scale{setups: 2, warmup: 0.002, corpus: 16, memEntries: 4, decompose: 4, kiloCells: 2, fleetSweep: 1}

// Every workload runs untraced and traced for about a second each, verifies
// every reply and reports every metric it promises.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads(smokeScale) {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, 11, time.Second, traced, smokeScale)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, rep.failed, rep.attempted, rep.errs)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !reflect.DeepEqual(rep.defs, want) {
				t.Errorf("%s traced=%v reports the wrong metric set", w.name, traced)
			}
			for _, d := range want {
				if _, ok := rep.values[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				}
			}
			for _, d := range endToEnd {
				if !traced && !(rep.values[d.name] > 0) {
					t.Errorf("%s: %s = %g, want > 0", w.name, d.name, rep.values[d.name])
				}
			}
		}
	}
}

// The traced warm-mixed chain (timing decorators injected through
// Options.Store) must behave exactly like the chain server.New builds from
// the Cache* options: same tiers in the same order with the same counters
// after the same requests. Otherwise the traced run would measure a
// different configuration from the one the end-to-end metrics come from.
func TestTracedChainMatchesServerChain(t *testing.T) {
	// The memory tier spreads keys over 16 shards by a per-process random
	// seed, so which entries it evicts differs between two instances. The
	// capacities here leave room for every key in any one shard, which keeps
	// all counters deterministic.
	configs := []server.Options{
		{},
		{CacheDir: "x", CacheCompress: true, CacheEntries: 256},
		{CacheDir: "x", CacheEntries: 256},
	}
	for _, o := range configs {
		plain, traced := o, o
		if o.CacheDir != "" {
			plain.CacheDir, traced.CacheDir = t.TempDir(), t.TempDir()
		}
		a, err := server.New(plain)
		if err != nil {
			t.Fatal(err)
		}
		store, err := tracedStore(traced, newRecorder(), "r0")
		if err != nil {
			t.Fatal(err)
		}
		b, err := server.New(server.Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		ta, tb := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
		c := newClient(nil)
		for i := 0; i < 40; i++ {
			cr, err := newCellReq(corpusCell(1, (i*7)%12))
			if err != nil {
				t.Fatal(err)
			}
			codeA, bodyA, _, errA := post(c, ta.URL+"/v1/compare", cr.body, 0)
			codeB, bodyB, _, errB := post(c, tb.URL+"/v1/compare", cr.body, 0)
			if errA != nil || errB != nil || codeA != http.StatusOK || codeB != http.StatusOK || string(bodyA) != string(bodyB) {
				t.Fatalf("request %d: %d %v / %d %v, bodies equal %v", i, codeA, errA, codeB, errB, string(bodyA) == string(bodyB))
			}
		}
		sa, sb := a.Stats().Cache, b.Stats().Cache
		c.CloseIdleConnections()
		ta.Close()
		tb.Close()
		a.Close()
		b.Close()
		if !reflect.DeepEqual(sa, sb) {
			ja, _ := json.Marshal(sa)
			jb, _ := json.Marshal(sb)
			t.Errorf("options %+v: server chain %s, traced chain %s", o, ja, jb)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if g, w := got[i], want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s (%s, %s), program %s (%s, %s)", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
