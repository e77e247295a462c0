package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"cdcs"
)

// Every input the benchmark sends is a pure function of (-seed, stream tag,
// index): no shared random state, so two clients pulling indices from one
// counter, a traced replay and a verification re-run all see the same
// requests. Tags keep the streams of one seed disjoint.
const (
	tagMain   = 1 // the timed request stream
	tagSetup  = 2 // requests sent during set-up
	tagCorpus = 3 // warm-mixed corpus cells
	tagFresh  = 4 // warm-mixed fresh cells
	tagPick   = 5 // warm-mixed read/write choice and Zipf draw
	tagVerify = 6 // which cells are re-run in-process
	tagFleet  = 7 // fleet-sweep mix-seed base
)

// splitmix64 is a stateless 64-bit mixer (Steele et al.'s SplitMix64
// finalizer): consecutive inputs give independent-looking outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw derives the value for (seed, tag, index).
func draw(seed int64, tag, i int) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed))^uint64(tag)) ^ uint64(i))
}

// mixSeed is a positive int64 mix seed for (seed, tag, index).
func mixSeed(seed int64, tag, i int) int64 { return int64(draw(seed, tag, i) >> 1) }

// unit maps a draw to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// cellReq is one /v1/compare request with its client-side content address.
type cellReq struct {
	body []byte
	hash string
}

func newCellReq(req cdcs.CompareRequest) (cellReq, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return cellReq{}, err
	}
	hash, err := req.Hash()
	if err != nil {
		return cellReq{}, fmt.Errorf("hash request: %w", err)
	}
	return cellReq{body: body, hash: hash}, nil
}

// paperCell is a paper-scale cell on the default 8×8 chip, all five schemes:
// three in four are random 64-app mixes, one in four random-mt with 8 apps.
func paperCell(seed int64, tag, i int) cdcs.CompareRequest {
	mix := cdcs.MixSpec{Kind: cdcs.MixRandom, Seed: mixSeed(seed, tag, i), N: 64}
	if i%4 == 3 {
		mix = cdcs.MixSpec{Kind: cdcs.MixRandomMT, Seed: mixSeed(seed, tag, i), N: 8}
	}
	return cdcs.CompareRequest{Mix: mix, Seed: 1}
}

// kiloSizes is the kilotile mesh cycle: three flat-pipeline sizes with eager
// topologies, then two hierarchical sizes with lazy ones.
var kiloSizes = []int{32, 48, 64, 96, 128}

// kiloCell is a kilotile cell: S-NUCA against CDCS with one app per 16 tiles.
// Full occupancy is left out: one 128×128 cell with 16,384 apps needs more
// memory than a small machine has.
func kiloCell(seed int64, tag, i int) cdcs.CompareRequest {
	side := kiloSizes[i%len(kiloSizes)]
	cfg := cdcs.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = side, side
	return cdcs.CompareRequest{
		Config:  &cfg,
		Mix:     cdcs.MixSpec{Kind: cdcs.MixRandom, Seed: mixSeed(seed, tag, i), N: side * side / 16},
		Schemes: []string{"S-NUCA", "CDCS"},
		Seed:    1,
	}
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the CDF.
// math/rand's Zipf needs s > 1; the hot-key skew measured in caching
// studies sits just below 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

// rank maps u in [0, 1) to a rank.
func (z zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// warmCell returns request i of the warm-mixed stream: a fresh cell with
// probability freshFrac, else a Zipf-chosen corpus cell.
func warmCell(seed int64, i int, z zipf, freshFrac float64) (req cdcs.CompareRequest, fresh bool) {
	pick := draw(seed, tagPick, i)
	if unit(pick) < freshFrac {
		return paperCell(seed, tagFresh, i), true
	}
	return corpusCell(seed, z.rank(unit(splitmix64(pick)))), false
}

// corpusCell is corpus entry c of the warm-mixed workload: 64-app mixes on
// 8×8 so every corpus cell costs the same to fill.
func corpusCell(seed int64, c int) cdcs.CompareRequest {
	return cdcs.CompareRequest{
		Mix:  cdcs.MixSpec{Kind: cdcs.MixRandom, Seed: mixSeed(seed, tagCorpus, c), N: 64},
		Seed: 1,
	}
}

// fleetSweep is sweep k of the fleet workload: 8×8 at two bank sizes over
// 16-app mixes with seeds base+4k+1 … base+4k+8, S-NUCA against CDCS. That is
// 16 cells, 8 of them shared with sweep k-1, as when a researcher slides a
// window over a parameter range.
func fleetSweep(seed int64, k int) cdcs.SweepRequest {
	base := int64(draw(seed, tagFleet, 0) >> 24)
	mixes := make([]cdcs.MixSpec, 8)
	for j := range mixes {
		mixes[j] = cdcs.MixSpec{Kind: cdcs.MixRandom, Seed: base + int64(4*k+j+1), N: 16}
	}
	return cdcs.SweepRequest{
		Mesh:    []cdcs.MeshSize{{Width: 8, Height: 8}},
		BankKB:  []int{256, 512},
		Mixes:   mixes,
		Schemes: []string{"S-NUCA", "CDCS"},
		Seed:    1,
	}
}
