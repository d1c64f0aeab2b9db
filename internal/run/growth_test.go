package run

import (
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/model"
)

// TestSnapshotIsImmutable: a payload is just its sender node, and the
// run's record of that node never changes — a receiver absorbing from an
// old state after the sender has grown sees the sender's past as it was
// when the message was sent, not its current one.
func TestSnapshotIsImmutable(t *testing.T) {
	g := newGrower(t, model.MustComplete(3, 1, 2))
	v1, v2, v3 := g.view(1), g.view(2), g.view(3)
	n1 := g.absorb(v1, nil, "a")
	// Grow the sender past n1: new state, new delivery, new external.
	n2 := g.absorb(v2, []BasicNode{n1})
	g.absorb(v1, []BasicNode{n2}, "b")
	got := g.absorb(v3, []BasicNode{n1})
	if v3.Contains(BasicNode{Proc: 1, Index: 2}) || v3.Contains(n2) {
		t.Error("receiver sees the sender's growth after the send")
	}
	if v3.Size() != 4 || len(v3.Deliveries()) != 1 {
		t.Errorf("receiver holds %d nodes and %d deliveries, want 4 and 1", v3.Size(), len(v3.Deliveries()))
	}
	if _, ok := v3.FindExternal(1, "b"); ok {
		t.Error("receiver sees an external absorbed after the send")
	}
	if got != (BasicNode{Proc: 3, Index: 1}) {
		t.Errorf("receiver moved to %s", got)
	}
}

// TestViewDeltaAPI: the inboxes of the nodes a view newly covers partition
// its deliveries exactly — the contract bounds.Handle relies on to pay
// only for growth.
func TestViewDeltaAPI(t *testing.T) {
	g := newGrower(t, model.MustComplete(3, 1, 2))
	v1, v2, v3 := g.view(1), g.view(2), g.view(3)
	s1 := g.absorb(v1, nil, "go")
	if len(v3.Deliveries()) != 0 {
		t.Fatalf("fresh view has %d deliveries", len(v3.Deliveries()))
	}
	before := append([]int(nil), v3.members...)
	g.absorb(v3, []BasicNode{s1})
	delta := newlyCovered(v3, before)
	if len(delta) != 1 || delta[0].From != s1 || delta[0].To.Proc != 3 || delta[0].Chan == model.NoChan {
		t.Fatalf("first delta = %+v", delta)
	}
	// A second batch relayed through process 2 adds 2's node and its
	// inbox; nothing covered before reappears.
	s2 := g.absorb(v2, []BasicNode{s1})
	before = append(before[:0], v3.members...)
	g.absorb(v3, []BasicNode{s2})
	second := newlyCovered(v3, before)
	if len(second) != 2 {
		t.Fatalf("second delta = %+v, want s1->2 and s2->3", second)
	}
	for _, d := range second {
		if d.From == s1 && d.To.Proc == 3 {
			t.Errorf("delta re-reports covered delivery %v", d)
		}
	}
	all := append(delta, second...)
	if got := v3.Deliveries(); len(got) != len(all) {
		t.Errorf("Deliveries() %d vs deltas %d", len(got), len(all))
	}
	for _, d := range all {
		if d.SendTime != 0 || d.RecvTime != 0 {
			t.Errorf("delivery %v carries a time", d)
		}
	}
}

// newlyCovered returns the inboxes of v's nodes above the frontier before.
func newlyCovered(v *View, before []int) []Delivery {
	var out []Delivery
	for i, k := range v.members {
		for idx := before[i] + 1; idx <= k; idx++ {
			out = v.AppendInbox(out, BasicNode{Proc: model.ProcID(i + 1), Index: idx})
		}
	}
	return out
}

// TestMergeWatermarkSkipsPrefixes: on a non-FIFO channel a newer state's
// message can arrive first; absorbing the older one afterwards adds only
// the receiver's own state and that one delivery, since the newer sender's
// past already covers everything the older one carries.
func TestMergeWatermarkSkipsPrefixes(t *testing.T) {
	g := newGrower(t, model.MustComplete(3, 1, 4))
	sender, relay, v := g.view(1), g.view(2), g.view(3)
	s1 := g.absorb(sender, nil, "go")
	r1 := g.absorb(relay, []BasicNode{s1})
	s2 := g.absorb(sender, []BasicNode{r1})

	// Newer sender first, older second (non-FIFO channel).
	g.absorb(v, []BasicNode{s2})
	sizeAfterLate, delsAfterLate := v.Size(), len(v.Deliveries())
	g.absorb(v, []BasicNode{s1})
	if v.Size() != sizeAfterLate+1 { // +1: v's own new state only
		t.Errorf("old sender changed membership: %d -> %d", sizeAfterLate, v.Size())
	}
	if got := len(v.Deliveries()); got != delsAfterLate+1 { // +1: the s1 -> v receipt itself
		t.Errorf("old sender re-recorded deliveries: %d -> %d", delsAfterLate, got)
	}
	// And everything the newer sender carried is present.
	if _, ok := v.DeliveryTo(s1, 2); !ok {
		t.Error("delivery s1->2 lost")
	}
	if _, ok := v.DeliveryTo(r1, 1); !ok {
		t.Error("delivery r1->1 lost")
	}
	if got, want := v.ExternalsAt(s1), []string{"go"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ExternalsAt(%s) = %v, want %v", s1, got, want)
	}
}
