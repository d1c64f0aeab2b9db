package run

import (
	"testing"

	"github.com/clockless/zigzag/internal/model"
)

// TestSnapshotIsImmutable: a snapshot frozen before further growth keeps
// reporting the old content — the property that lets the live engine share
// one payload across every out-arc (and across goroutines) without deep
// copies.
func TestSnapshotIsImmutable(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	v1 := NewLocalView(net, 1)
	n1, err := v1.Absorb(nil, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	snap := v1.Snapshot()
	// Grow the source past the snapshot: new state, new delivery, new
	// external.
	v2 := NewLocalView(net, 2)
	n2, err := v2.Absorb([]Receipt{{From: n1, Payload: snap}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Absorb([]Receipt{{From: n2, Payload: v2.Snapshot()}}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if snap.Contains(BasicNode{Proc: 1, Index: 2}) {
		t.Error("snapshot sees membership growth after freeze")
	}
	if len(snap.log) != 0 || len(snap.extLog) != 1 {
		t.Errorf("snapshot logs grew: %d deliveries, %d externals", len(snap.log), len(snap.extLog))
	}
	if snap.Origin() != n1 {
		t.Errorf("snapshot origin = %s, want %s", snap.Origin(), n1)
	}
}

// TestViewDeltaAPI: DeliveryCount watermarks plus DeliveriesSince partition
// the delivery log exactly — the contract bounds.Handle relies on to pay
// only for growth.
func TestViewDeltaAPI(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	sender1 := NewLocalView(net, 1)
	s1, err := sender1.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	v := NewLocalView(net, 3)
	if v.DeliveryCount() != 0 {
		t.Fatalf("fresh view has %d deliveries", v.DeliveryCount())
	}
	if _, err := v.Absorb([]Receipt{{From: s1, Payload: sender1.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	mark := v.DeliveryCount()
	if mark != 1 {
		t.Fatalf("after one receipt: %d deliveries", mark)
	}
	d := v.DeliveriesSince(0)[0]
	if d.From != s1 || d.To.Proc != 3 || d.Chan == model.NoChan {
		t.Errorf("first delivery = %+v", d)
	}
	// A second batch relayed through process 2 adds its deliveries after
	// the watermark; nothing before the watermark changes.
	sender2 := NewLocalView(net, 2)
	s2, err := sender2.Absorb([]Receipt{{From: s1, Payload: sender1.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Absorb([]Receipt{{From: s2, Payload: sender2.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	delta := v.DeliveriesSince(mark)
	if len(delta) == 0 {
		t.Fatal("no delta after second batch")
	}
	for _, d := range delta {
		if d.From == s1 && d.To.Proc == 3 {
			t.Errorf("delta re-reports pre-watermark delivery %v", d)
		}
	}
	if got := v.DeliveriesSince(0); len(got) != v.DeliveryCount() {
		t.Errorf("full log %d vs count %d", len(got), v.DeliveryCount())
	}
	// The sorted Deliveries view agrees with the log contents.
	if len(v.Deliveries()) != v.DeliveryCount() {
		t.Errorf("Deliveries() %d vs count %d", len(v.Deliveries()), v.DeliveryCount())
	}
}

// TestMergeWatermarkSkipsPrefixes: merging successive snapshots of one
// source only scans each suffix, yet out-of-order (non-FIFO) older
// snapshots still merge correctly and never regress the watermark.
func TestMergeWatermarkSkipsPrefixes(t *testing.T) {
	net := model.MustComplete(3, 1, 4)
	sender := NewLocalView(net, 1)
	s1, err := sender.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	early := sender.Snapshot() // frozen at state 1
	relay := NewLocalView(net, 2)
	r1, err := relay.Absorb([]Receipt{{From: s1, Payload: early}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sender.Absorb([]Receipt{{From: r1, Payload: relay.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	late := sender.Snapshot() // frozen at state 2, strictly more content

	v := NewLocalView(net, 3)
	// Newer snapshot first, older second (non-FIFO channel).
	if _, err := v.Absorb([]Receipt{{From: s2, Payload: late}}, nil); err != nil {
		t.Fatal(err)
	}
	sizeAfterLate := v.Size()
	logAfterLate := v.DeliveryCount()
	if _, err := v.Absorb([]Receipt{{From: s1, Payload: early}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Size() != sizeAfterLate+1 { // +1: v's own new state only
		t.Errorf("old snapshot changed membership: %d -> %d", sizeAfterLate, v.Size())
	}
	if v.DeliveryCount() != logAfterLate+1 { // +1: the s1 -> v receipt itself
		t.Errorf("old snapshot re-recorded deliveries: %d -> %d", logAfterLate, v.DeliveryCount())
	}
	// And everything the late snapshot carried is present.
	if _, ok := v.DeliveryTo(s1, 2); !ok {
		t.Error("delivery s1->2 lost")
	}
	if _, ok := v.DeliveryTo(r1, 1); !ok {
		t.Error("delivery r1->1 lost")
	}
}
