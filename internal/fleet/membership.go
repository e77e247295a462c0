package fleet

import (
	"math"
	neturl "net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Membership is the epoch-versioned member registry behind dynamic fleets:
// a mutable, normalized, sorted list of replica base URLs plus a counter
// that totally orders changes. Every replica (and every sweep coordinator)
// holds its own Membership and converges on the fleet-wide view by
// exchanging (members, epoch) snapshots over the existing peer links — a
// join or leave bumps the epoch, snapshots with a newer epoch are adopted
// wholesale, older ones are ignored, and equal-epoch disagreements (two
// concurrent changes that raced to the same counter value) are resolved by
// taking the union under a fresh epoch, which both sides compute
// identically and therefore agree on.
//
// The registry is transport-agnostic: internal/server propagates snapshots
// via POST /v1/join and /v1/leave and piggybacks them on /healthz, and the
// client-side fleet view (Options.AdoptMembers) applies snapshots its
// health probes observe. Membership itself only versions and merges lists.
type Membership struct {
	mu       sync.Mutex
	epoch    uint64
	members  []string // normalized, sorted, deduplicated
	onChange []func(members []string, epoch uint64)

	joins  atomic.Int64 // members added (announcements and adopted snapshots)
	leaves atomic.Int64 // members removed
}

// NormalizeURL is the one normal form of a replica base URL: surrounding
// space and trailing slashes trimmed. Every layer that names replicas — the
// fleet view, the sweep fan-out, the peer tier, the serving layer — applies
// it, so their rendezvous rankings agree on the same URL strings.
func NormalizeURL(url string) string {
	return strings.TrimRight(strings.TrimSpace(url), "/")
}

// ValidMemberURL reports whether u, once normalized, can name a replica: an
// absolute http or https URL with a host. Announcements and gossip carry
// member URLs from other processes; a string that is not one ("not a url",
// "ftp://x", "http://") would otherwise be gossiped, probed and
// rendezvous-ranked by every replica.
func ValidMemberURL(u string) bool {
	p, err := neturl.Parse(NormalizeURL(u))
	return err == nil && (p.Scheme == "http" || p.Scheme == "https") && p.Host != ""
}

// normalizeMembers normalizes, deduplicates and sorts a member list. The
// sorted order makes equal views comparable bytewise and keeps every
// replica's list identical, so (members, epoch) snapshots from different
// replicas are directly comparable. Rendezvous ranking is order-independent,
// so sorting never moves a cell.
func normalizeMembers(urls []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		u = NormalizeURL(u)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// maxEpoch is where the epoch counter stops. A change at maxEpoch is
// refused rather than wrapping the counter to zero, where every older
// snapshot would win; stopping one short of the uint64 limit keeps every
// epoch a registry can hold a valid snapshot epoch for its peers.
const maxEpoch = math.MaxUint64 - 1

// ValidSnapshot reports whether a (members, epoch) snapshot received from
// another replica may be applied: it names at least one member, every
// member that is not blank is a ValidMemberURL, and its epoch is at most
// maxEpoch. Apply ignores any other snapshot; the serving layer rejects one
// arriving as gossip.
func ValidSnapshot(members []string, epoch uint64) bool {
	if epoch > maxEpoch {
		return false
	}
	named := false
	for _, u := range members {
		if NormalizeURL(u) == "" {
			continue
		}
		if !ValidMemberURL(u) {
			return false
		}
		named = true
	}
	return named
}

// NewMembership builds a registry holding the initial members at epoch 0.
func NewMembership(initial []string) *Membership {
	return &Membership{members: normalizeMembers(initial)}
}

// Members returns a copy of the current member list (sorted).
func (m *Membership) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...)
}

// Snapshot returns the member list and epoch as one consistent pair.
func (m *Membership) Snapshot() ([]string, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...), m.epoch
}

// Has reports whether url, once normalized, is a member.
func (m *Membership) Has(url string) bool {
	url = NormalizeURL(url)
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := slices.BinarySearch(m.members, url)
	return ok
}

// Join adds url as a member, bumping the epoch. Reports whether the list
// changed (an already-present member is a no-op at the old epoch, so
// re-announcing a join is idempotent and does not churn the fleet; a url
// that is not a ValidMemberURL is refused).
func (m *Membership) Join(url string) bool {
	if !ValidMemberURL(url) {
		return false
	}
	url = NormalizeURL(url)
	m.mu.Lock()
	if m.epoch == maxEpoch {
		m.mu.Unlock()
		return false
	}
	for _, u := range m.members {
		if u == url {
			m.mu.Unlock()
			return false
		}
	}
	m.members = normalizeMembers(append(m.members, url))
	m.epoch++
	members, epoch := append([]string(nil), m.members...), m.epoch
	fns := append(make([]func([]string, uint64), 0, len(m.onChange)), m.onChange...)
	m.mu.Unlock()
	m.joins.Add(1)
	for _, fn := range fns {
		fn(members, epoch)
	}
	return true
}

// Leave removes url, bumping the epoch. Reports whether the list changed.
func (m *Membership) Leave(url string) bool {
	url = NormalizeURL(url)
	m.mu.Lock()
	if m.epoch == maxEpoch {
		m.mu.Unlock()
		return false
	}
	kept := m.members[:0]
	removed := false
	for _, u := range m.members {
		if u == url {
			removed = true
			continue
		}
		kept = append(kept, u)
	}
	if !removed {
		m.mu.Unlock()
		return false
	}
	m.members = kept
	m.epoch++
	members, epoch := append([]string(nil), m.members...), m.epoch
	fns := append(make([]func([]string, uint64), 0, len(m.onChange)), m.onChange...)
	m.mu.Unlock()
	m.leaves.Add(1)
	for _, fn := range fns {
		fn(members, epoch)
	}
	return true
}

// Apply merges a (members, epoch) snapshot received from another replica.
// A strictly newer epoch replaces the local view; an equal epoch with an
// identical list is a no-op; an equal epoch with a different list is a
// concurrency conflict, resolved by adopting the union under epoch+1 (both
// conflicting sides compute the same union and the same successor epoch, so
// one more exchange converges them); an older epoch is ignored, and so is
// a snapshot ValidSnapshot refuses. Reports whether the local view changed
// — the caller then re-propagates its view so stragglers catch up.
func (m *Membership) Apply(members []string, epoch uint64) bool {
	if !ValidSnapshot(members, epoch) {
		return false
	}
	incoming := normalizeMembers(members)
	m.mu.Lock()
	switch {
	case epoch > m.epoch:
		// Newer view wins wholesale.
	case epoch < m.epoch, epoch == maxEpoch:
		m.mu.Unlock()
		return false
	case equalMembers(incoming, m.members):
		m.mu.Unlock()
		return false
	default:
		// Same epoch, different lists: two changes raced. The union under
		// the successor epoch is a deterministic merge both sides agree on.
		incoming = normalizeMembers(append(incoming, m.members...))
		epoch++
	}
	added, removed := diffMembers(m.members, incoming)
	m.members = incoming
	m.epoch = epoch
	snapshot, snapEpoch := append([]string(nil), m.members...), m.epoch
	fns := append(make([]func([]string, uint64), 0, len(m.onChange)), m.onChange...)
	m.mu.Unlock()
	m.joins.Add(int64(added))
	m.leaves.Add(int64(removed))
	for _, fn := range fns {
		fn(snapshot, snapEpoch)
	}
	return true
}

// OnChange registers a callback invoked (outside the registry lock) after
// every change with the new list and epoch. Callbacks must be fast; they run
// on the goroutine that applied the change.
func (m *Membership) OnChange(fn func(members []string, epoch uint64)) {
	m.mu.Lock()
	m.onChange = append(m.onChange, fn)
	m.mu.Unlock()
}

// Joins returns the total number of members ever added (including via
// adopted snapshots); Leaves the total removed. They feed the
// cdcs_fleet_joins_total metric and its drain-side sibling.
func (m *Membership) Joins() int64  { return m.joins.Load() }
func (m *Membership) Leaves() int64 { return m.leaves.Load() }

// equalMembers compares two normalized sorted lists.
func equalMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffMembers counts entries of next not in prev (added) and of prev not in
// next (removed); both lists are normalized and sorted.
func diffMembers(prev, next []string) (added, removed int) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			removed++
			i++
		default:
			added++
			j++
		}
	}
	removed += len(prev) - i
	added += len(next) - j
	return added, removed
}
