package policy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cdcs/internal/workload"
)

// tradeStat is one CDCS schedule's step-4 outcome: the executed trade count
// and the bit pattern of the summed latency change.
type tradeStat struct {
	trades   int
	gainBits uint64
}

// quickTradeMixes rebuilds the mixes the fig11 and ext-scaling quick
// campaigns schedule (8 mixes each, base seed 1, per-mix seed
// 1 + m·7919 as sim.Engine.RunCampaign derives it) and returns each one's CDCS
// trade outcome, keyed "fig11/m" and "ext-scaling/<tiles>/m". ext-scaling's
// 8×8 point schedules exactly fig11's mixes, so it is covered once.
func quickTradeMixes(t *testing.T) map[string]tradeStat {
	t.Helper()
	cpu := workload.SPECCPU()
	out := map[string]tradeStat{}
	run := func(key string, env Env, apps, m int) {
		mix := workload.RandomST(rand.New(rand.NewSource(1+int64(m)*7919)), cpu, apps)
		s, err := BuildWith(env, SchemeCDCS, mix, rand.New(rand.NewSource(1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = tradeStat{s.Core.Trades, math.Float64bits(s.Core.TradeGain)}
	}
	for m := 0; m < 8; m++ {
		run(fmt.Sprintf("fig11/%d", m), DefaultEnv(), 64, m)
	}
	for _, side := range []int{4, 6, 12} {
		for m := 0; m < 8; m++ {
			run(fmt.Sprintf("ext-scaling/%d/%d", side*side, m), ScaledEnv(side, side), side*side, m)
		}
	}
	return out
}

// TestQuickTradesPinned pins Result.Trades and TradeGain bit for bit on the
// fig11 and ext-scaling quick mixes. The values were recorded before the
// trade pass kept its candidate list sorted incrementally and BankAlloc lost
// its dense form; the paper's one-pass trade rule (§IV-F) must execute the
// same trades in the same order, so any drift here is a behaviour change.
func TestQuickTradesPinned(t *testing.T) {
	want := map[string]tradeStat{
		"fig11/0":           {14, 0xc04c2c6666666657},
		"fig11/1":           {22, 0xc04f14bfdc579ba9},
		"fig11/2":           {7, 0xc053772807727f2e},
		"fig11/3":           {14, 0xc05415d68ccfef8d},
		"fig11/4":           {22, 0xc054b55a4c55a400},
		"fig11/5":           {12, 0xc030f757a976ffd5},
		"fig11/6":           {14, 0xc03a06725c61a9e7},
		"fig11/7":           {14, 0xc03b026c1c49991c},
		"ext-scaling/16/0":  {4, 0xc000391f2b1bffe4},
		"ext-scaling/16/1":  {1, 0xc013b864407292d4},
		"ext-scaling/16/2":  {2, 0xbff9bd6d6b6822a8},
		"ext-scaling/16/3":  {1, 0xbfefe42d98d3c14e},
		"ext-scaling/16/4":  {5, 0xc037094f2094f200},
		"ext-scaling/16/5":  {1, 0xbfff6bc70f9728d8},
		"ext-scaling/16/6":  {3, 0xc030b9403b9403bc},
		"ext-scaling/16/7":  {1, 0xc009745d1745d184},
		"ext-scaling/36/0":  {8, 0xc013befc234175f7},
		"ext-scaling/36/1":  {6, 0xc036a3c070fe3c0c},
		"ext-scaling/36/2":  {4, 0xc0238c9138c911fa},
		"ext-scaling/36/3":  {9, 0xc030de6a68fa57cc},
		"ext-scaling/36/4":  {8, 0xc042e2e8ba2e8b5c},
		"ext-scaling/36/5":  {12, 0xc0145f95923b8447},
		"ext-scaling/36/6":  {7, 0xc032e2183421833b},
		"ext-scaling/36/7":  {9, 0xc040f2b44addf7b0},
		"ext-scaling/144/0": {54, 0xc06e17a6a1fa68d0},
		"ext-scaling/144/1": {74, 0xc0755fae147ae0cd},
		"ext-scaling/144/2": {65, 0xc06d68d2204f8e31},
		"ext-scaling/144/3": {45, 0xc061393c21a86abb},
		"ext-scaling/144/4": {58, 0xc0613f6e0420b9a2},
		"ext-scaling/144/5": {50, 0xc05c10286b0923a7},
		"ext-scaling/144/6": {61, 0xc07162e147ae1461},
		"ext-scaling/144/7": {60, 0xc072052bd1b873ae},
	}
	got := quickTradeMixes(t)
	if len(got) != len(want) {
		t.Fatalf("%d mixes, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g != w {
			t.Errorf("%s: trades %d gain %v (%#x), want %d gain %v (%#x)", k,
				g.trades, math.Float64frombits(g.gainBits), g.gainBits,
				w.trades, math.Float64frombits(w.gainBits), w.gainBits)
		}
	}
}
