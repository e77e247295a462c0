package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// streamBytes encodes the first n requests of every workload's stream for
// seed.
func streamBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, w := range workloads(fullScale) {
		for i := 0; i < n; i++ {
			var v any
			if w.cmp != nil {
				req, cold := w.cmp.request(seed, i)
				v = struct {
					Req  any
					Cold bool
				}{req, cold}
			} else {
				v = fleetSweep(seed, i)
			}
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := streamBytes(t, 7, 200), streamBytes(t, 7, 200)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if bytes.Equal(a, streamBytes(t, 8, 200)) {
		t.Fatal("a different seed gave the same request stream")
	}
}

// Neighbouring fleet sweeps share exactly half their cells.
func TestFleetSweepsOverlapByHalf(t *testing.T) {
	prev, err := fleetSweep(3, 4).Cells()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := fleetSweep(3, 5).Cells()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range prev {
		seen[c.Hash] = true
	}
	shared := 0
	for _, c := range cur {
		if seen[c.Hash] {
			shared++
		}
	}
	if len(cur) != 16 || shared != 8 {
		t.Fatalf("sweep has %d cells, %d shared with the previous one; want 16 and 8", len(cur), shared)
	}
}

// About a tenth of warm-mixed requests are fresh cells, and reads favour
// the head of the corpus.
func TestWarmMixedStreamShape(t *testing.T) {
	z := newZipf(256, 0.99)
	fresh, head := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		req, isFresh := warmCell(1, i, z, freshFrac)
		if isFresh {
			fresh++
		} else if req.Mix.Seed == corpusCell(1, 0).Mix.Seed {
			head++
		}
	}
	if f := float64(fresh) / n; f < 0.09 || f > 0.11 {
		t.Errorf("fresh share %.3f, want about 0.10", f)
	}
	// P(rank 0) = 1/H(256, 0.99) ≈ 0.16 of reads.
	if h := float64(head) / float64(n-fresh); h < 0.13 || h > 0.19 {
		t.Errorf("hottest key takes %.3f of reads, want about 0.16", h)
	}
}
