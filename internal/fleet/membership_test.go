package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestMembershipJoinLeaveEpochs(t *testing.T) {
	m := NewMembership([]string{"http://b:2/", " http://a:1 ", "http://a:1"})
	if got := m.Members(); !reflect.DeepEqual(got, []string{"http://a:1", "http://b:2"}) {
		t.Fatalf("initial members = %v", got)
	}
	if m.epoch != 0 {
		t.Fatalf("initial epoch = %d, want 0", m.epoch)
	}

	if !m.Join("http://c:3") {
		t.Fatal("Join of a new member reported no change")
	}
	if m.epoch != 1 || !slices.Contains(m.Members(), "http://c:3") {
		t.Fatalf("after join: epoch %d members %v", m.epoch, m.Members())
	}
	// Re-announcing is idempotent: no change, no epoch churn.
	if m.Join("http://c:3/") {
		t.Fatal("re-join of a member reported a change")
	}
	if m.epoch != 1 {
		t.Fatalf("idempotent join moved the epoch to %d", m.epoch)
	}

	if !m.Leave("http://a:1") {
		t.Fatal("Leave of a member reported no change")
	}
	if m.epoch != 2 || slices.Contains(m.Members(), "http://a:1") {
		t.Fatalf("after leave: epoch %d members %v", m.epoch, m.Members())
	}
	if m.Leave("http://a:1") {
		t.Fatal("leave of a non-member reported a change")
	}
	if m.Joins() != 1 || m.Leaves() != 1 {
		t.Errorf("Joins/Leaves = %d/%d, want 1/1", m.Joins(), m.Leaves())
	}
}

func TestMembershipApplyEpochRules(t *testing.T) {
	m := NewMembership([]string{"http://a:1", "http://b:2"})
	m.Join("http://c:3") // epoch 1

	// Older epoch: ignored.
	if m.Apply([]string{"http://z:9"}, 0) {
		t.Fatal("older snapshot applied")
	}
	// Equal epoch, identical list: no-op.
	if m.Apply([]string{"http://a:1", "http://b:2", "http://c:3"}, 1) {
		t.Fatal("identical snapshot reported a change")
	}
	if m.epoch != 1 {
		t.Fatalf("no-op applies moved the epoch to %d", m.epoch)
	}

	// Newer epoch: adopted wholesale, even when it shrinks the list.
	if !m.Apply([]string{"http://a:1"}, 5) {
		t.Fatal("newer snapshot not applied")
	}
	if m.epoch != 5 || !reflect.DeepEqual(m.Members(), []string{"http://a:1"}) {
		t.Fatalf("after newer apply: epoch %d members %v", m.epoch, m.Members())
	}

	// Equal epoch, different list: union under epoch+1 — both racing sides
	// compute the same merge, so one more exchange converges them.
	a := NewMembership([]string{"http://a:1"})
	b := NewMembership([]string{"http://a:1"})
	a.Join("http://x:1") // epoch 1 on both sides, different lists
	b.Join("http://y:1")
	av, ae := a.Snapshot()
	bv, be := b.Snapshot()
	if !a.Apply(bv, be) || !b.Apply(av, ae) {
		t.Fatal("conflicting snapshots not applied")
	}
	am, ape := a.Snapshot()
	bm, bpe := b.Snapshot()
	if !reflect.DeepEqual(am, bm) || ape != bpe {
		t.Fatalf("conflict resolution diverged: %v@%d vs %v@%d", am, ape, bm, bpe)
	}
	if want := []string{"http://a:1", "http://x:1", "http://y:1"}; !reflect.DeepEqual(am, want) {
		t.Fatalf("union = %v, want %v", am, want)
	}
	if ape != 2 {
		t.Fatalf("union epoch = %d, want 2", ape)
	}
}

func TestMembershipOnChange(t *testing.T) {
	m := NewMembership([]string{"http://a:1"})
	type change struct {
		members []string
		epoch   uint64
	}
	var got []change
	m.OnChange(func(members []string, epoch uint64) {
		got = append(got, change{members, epoch})
	})

	m.Join("http://b:2")
	m.Leave("http://a:1")
	m.Apply([]string{"http://z:9"}, 10)
	m.Apply([]string{"http://z:9"}, 3) // older: no callback

	want := []change{
		{[]string{"http://a:1", "http://b:2"}, 1},
		{[]string{"http://b:2"}, 2},
		{[]string{"http://z:9"}, 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OnChange sequence = %+v, want %+v", got, want)
	}
	// Apply counted one add and one remove against the previous view.
	if m.Joins() != 2 || m.Leaves() != 2 {
		t.Errorf("Joins/Leaves = %d/%d, want 2/2", m.Joins(), m.Leaves())
	}
}

// TestMembershipIgnoresInvalidSnapshots: Apply ignores a snapshot with no
// member, which would empty the view, and one whose epoch is past
// maxEpoch. At maxEpoch every change is refused, where the increment
// used to wrap the counter to 0 so that every older snapshot won.
func TestMembershipIgnoresInvalidSnapshots(t *testing.T) {
	m := NewMembership([]string{"http://a:1"})
	for _, members := range [][]string{nil, {}, {" ", "/"}} {
		if m.Apply(members, 5) {
			t.Errorf("snapshot %q applied", members)
		}
	}
	if m.Apply([]string{"http://a:1", "http://x:1"}, math.MaxUint64) {
		t.Error("snapshot at epoch 2^64-1 applied")
	}
	if !m.Apply([]string{"http://a:1"}, math.MaxUint64-1) {
		t.Fatal("snapshot at the last epoch not applied")
	}
	if m.Join("http://x:1") || m.Leave("http://a:1") || m.Apply([]string{"http://y:1"}, math.MaxUint64-1) {
		t.Error("a change at the last epoch was applied")
	}
	if members, epoch := m.Snapshot(); epoch != math.MaxUint64-1 || !reflect.DeepEqual(members, []string{"http://a:1"}) {
		t.Fatalf("view = %v@%d, want [http://a:1]@%d", members, epoch, uint64(math.MaxUint64-1))
	}
}

func TestValidMemberURL(t *testing.T) {
	for u, want := range map[string]bool{
		"http://a:1":           true,
		" https://b.example/ ": true,
		"http://10.0.0.1:8080": true,
		"not a url":            false,
		"":                     false,
		"http://":              false,
		"ftp://a:1":            false,
		"a:1":                  false,
		"/a:1":                 false,
		"http//a:1":            false,
	} {
		if got := ValidMemberURL(u); got != want {
			t.Errorf("ValidMemberURL(%q) = %v, want %v", u, got, want)
		}
	}
	m := NewMembership([]string{"http://a:1"})
	if m.Join("not a url") {
		t.Error("Join accepted a junk URL")
	}
	if ValidSnapshot([]string{"http://a:1", "junk"}, 3) {
		t.Error("ValidSnapshot accepted a snapshot with a junk member")
	}
	if !ValidSnapshot([]string{"http://a:1", " "}, 3) {
		t.Error("ValidSnapshot refused a snapshot whose only other entry is blank")
	}
}

func TestMembershipHas(t *testing.T) {
	m := NewMembership([]string{"http://a:1", "junk"})
	for u, want := range map[string]bool{"http://a:1/": true, " junk ": true, "http://b:2": false, "": false} {
		if got := m.Has(u); got != want {
			t.Errorf("Has(%q) = %v, want %v", u, got, want)
		}
	}
}
