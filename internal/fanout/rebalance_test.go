package fanout

import (
	"fmt"
	"testing"
)

// rebalanceKeys is a deterministic synthetic keyspace, large enough for the
// closed-form move fractions to hold tightly.
func rebalanceKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell-%04d", i)
	}
	return keys
}

// topK returns the first k replicas of a key's rendezvous ranking: the
// key's holder set under top-K routing.
func topK(replicas []string, key string, k int) []string {
	return Rank(replicas, key)[:min(k, len(replicas))]
}

// movedKeys returns the keys whose top-k holder *set* differs between two
// replica lists — the cells a membership change actually re-routes. This is
// the incremental-rebalance contract of rendezvous hashing: adding a
// replica moves exactly the keys whose new top-k includes it (each key
// independently with probability k/(n+1) going from n to n+1 replicas), and
// removing one moves exactly the keys whose old top-k contained it — every
// other key keeps its holders, because the relative scores of surviving
// replicas never change.
func movedKeys(oldReplicas, newReplicas []string, keys []string, k int) []string {
	var moved []string
	for _, key := range keys {
		if !sameHolders(topK(oldReplicas, key, k), topK(newReplicas, key, k)) {
			moved = append(moved, key)
		}
	}
	return moved
}

// sameHolders compares two holder slices as sets.
func sameHolders(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, r := range a {
		in[r] = true
	}
	for _, r := range b {
		if !in[r] {
			return false
		}
	}
	return true
}

// TestRebalanceIsIncremental pins the tentpole routing invariant: a
// membership change re-routes exactly the keys whose top-K holder set
// changed — adding a replica moves a key iff the newcomer entered its new
// top-K, removing one moves a key iff the leaver was in its old top-K, and
// every other key keeps its holders untouched. The moved fraction matches
// the closed forms K/(N+1) on add and K/N on remove.
func TestRebalanceIsIncremental(t *testing.T) {
	const (
		k = 2
		n = 4 // replicas before the join
	)
	keys := rebalanceKeys(2000)
	old := make([]string, n)
	for i := range old {
		old[i] = fmt.Sprintf("http://r%d:8080", i)
	}
	joined := "http://joined:8080"
	grown := append(append([]string(nil), old...), joined)

	contains := func(list []string, url string) bool {
		for _, u := range list {
			if u == url {
				return true
			}
		}
		return false
	}

	// Join: movedKeys must equal, key for key, the set whose new top-K
	// includes the newcomer — no other key may move.
	moved := movedKeys(old, grown, keys, k)
	movedSet := map[string]bool{}
	for _, key := range moved {
		movedSet[key] = true
	}
	for _, key := range keys {
		wantMoved := contains(topK(grown, key, k), joined)
		if movedSet[key] != wantMoved {
			t.Fatalf("join: key %s moved=%v, want %v (newcomer in new top-%d: %v)",
				key, movedSet[key], wantMoved, k, topK(grown, key, k))
		}
		if !wantMoved {
			// An unmoved key's holders are identical, not merely
			// set-equal-by-accident.
			o, g := topK(old, key, k), topK(grown, key, k)
			for i := range o {
				if o[i] != g[i] {
					t.Fatalf("join: unmoved key %s changed holders %v -> %v", key, o, g)
				}
			}
		}
	}
	// Closed form: each key's new top-K is a uniform K-subset of N+1
	// replicas, so the newcomer appears with probability K/(N+1).
	want := float64(k) / float64(n+1) * float64(len(keys))
	if got := float64(len(moved)); got < 0.8*want || got > 1.2*want {
		t.Errorf("join moved %d keys, want ~%.0f (K/(N+1) of %d)", len(moved), want, len(keys))
	}

	// Leave (the join reversed): a key moves iff the leaver held it.
	movedBack := movedKeys(grown, old, keys, k)
	if len(movedBack) != len(moved) {
		t.Errorf("remove moved %d keys, join moved %d — they must mirror", len(movedBack), len(moved))
	}
	for _, key := range movedBack {
		if !contains(topK(grown, key, k), joined) {
			t.Fatalf("remove: key %s moved but the leaver was not a holder", key)
		}
	}

	// No change, no movement.
	if m := movedKeys(old, old, keys, k); len(m) != 0 {
		t.Errorf("identical member lists moved %d keys", len(m))
	}
}
