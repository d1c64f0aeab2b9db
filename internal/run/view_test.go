package run

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/clockless/zigzag/internal/model"
)

// TestViewOfMatchesPast checks ViewOf against past(r, sigma) computed the
// slow way: the closure of {sigma} under locality and delivery edges.
func TestViewOfMatchesPast(t *testing.T) {
	r := chainRun(t)
	sigma := BasicNode{Proc: 3, Index: 1}
	v, err := ViewOf(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	past := map[BasicNode]bool{sigma: true}
	for grew := true; grew; {
		grew = false
		for n := range past {
			preds := []BasicNode{}
			if n.Index > 0 {
				preds = append(preds, BasicNode{Proc: n.Proc, Index: n.Index - 1})
			}
			for _, d := range r.Inbox(n) {
				preds = append(preds, d.From)
			}
			for _, m := range preds {
				if !past[m] {
					past[m], grew = true, true
				}
			}
		}
	}
	if v.Size() != len(past) {
		t.Errorf("view size %d, past size %d", v.Size(), len(past))
	}
	nodes := v.Nodes()
	if len(nodes) != len(past) {
		t.Errorf("Nodes lists %d nodes, past has %d", len(nodes), len(past))
	}
	for _, n := range nodes {
		if !past[n] {
			t.Errorf("view holds %s outside the past", n)
		}
	}
	for n := range past {
		if !v.Contains(n) {
			t.Errorf("view missing %s", n)
		}
	}
	again, err := ViewOf(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(again) {
		t.Error("two views of one node have different frontiers")
	}
	if other, _ := ViewOf(r, BasicNode{Proc: 2, Index: 1}); v.Equal(other) {
		t.Error("views of different pasts compare equal")
	}
	if v.Origin() != sigma {
		t.Errorf("origin = %s", v.Origin())
	}
}

func TestViewDeliveriesAndLeaving(t *testing.T) {
	r := chainRun(t)
	// At node 2#1 the message to 3 has left the past.
	v, err := ViewOf(r, BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := v.Deliveries()
	if len(ds) != 1 || ds[0].From.Proc != 1 || ds[0].To.Proc != 2 {
		t.Errorf("deliveries = %v", ds)
	}
	leaving := v.Leaving()
	if len(leaving) != 1 || leaving[0].From.Proc != 2 || leaving[0].To != 3 {
		t.Errorf("leaving = %v", leaving)
	}
	if to, ok := v.DeliveryTo(BasicNode{Proc: 1, Index: 1}, 2); !ok || to.Proc != 2 {
		t.Errorf("DeliveryTo = %v, %v", to, ok)
	}
	if _, ok := v.DeliveryTo(BasicNode{Proc: 2, Index: 1}, 3); ok {
		t.Error("escaped delivery visible inside the view")
	}
}

func TestViewResolvePrefix(t *testing.T) {
	r := chainRun(t)
	v, err := ViewOf(r, BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	theta := Via(BasicNode{Proc: 1, Index: 1}, model.Path{1, 2, 3})
	prefix, hops := v.ResolvePrefix(theta)
	if hops != 1 || len(prefix) != 2 {
		t.Errorf("prefix = %v, hops = %d", prefix, hops)
	}
}

func TestViewExternals(t *testing.T) {
	r := chainRun(t)
	v, err := ViewOf(r, BasicNode{Proc: 3, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, ok := v.FindExternal(1, "go")
	if !ok || node != (BasicNode{Proc: 1, Index: 1}) {
		t.Errorf("FindExternal = %v, %v", node, ok)
	}
	if _, ok := v.FindExternal(1, "halt"); ok {
		t.Error("phantom external found")
	}
	if labels := v.ExternalsAt(node); len(labels) != 1 || labels[0] != "go" {
		t.Errorf("ExternalsAt = %v", labels)
	}
}

// grower records a run one batch per tick, as a live execution does, and
// moves views over the growing run with Advance. It tolerates any latency
// of at least 1, so a recorded sender may deliver at any later tick.
type grower struct {
	t    *testing.T
	rec  *Recorder
	tick model.Time
}

func newGrower(t *testing.T, net *model.Network) *grower {
	t.Helper()
	rec, err := NewRecorder(net, 100)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tolerate()
	return &grower{t: t, rec: rec}
}

// view returns process p's initial view over the growing run.
func (g *grower) view(p model.ProcID) *View {
	g.t.Helper()
	v, err := ViewOf(g.rec.Run(), BasicNode{Proc: p})
	if err != nil {
		g.t.Fatal(err)
	}
	return v
}

// append records one batch for process p at the next tick, from the given
// recorded senders, and returns the node it creates.
func (g *grower) append(p model.ProcID, from []BasicNode, labels ...string) (BasicNode, error) {
	arrivals := make([]Arrival, len(from))
	for i, f := range from {
		arrivals[i] = Arrival{From: f, Send: -1, Chan: g.rec.Run().Net().ChanIDOf(f.Proc, p)}
		if g.rec.Run().Appears(f) {
			arrivals[i].Send = g.rec.Run().MustTime(f)
		}
	}
	node, err := g.rec.Append(p, g.tick+1, arrivals, labels)
	if err == nil {
		g.tick++
	}
	return node, err
}

// absorb records one batch for v's process, which must be at the end of
// its timeline, and advances v to the node it creates.
func (g *grower) absorb(v *View, from []BasicNode, labels ...string) BasicNode {
	g.t.Helper()
	node, err := g.append(v.Origin().Proc, from, labels...)
	if err != nil {
		g.t.Fatal(err)
	}
	if next, err := v.Advance(g.rec.Run()); err != nil || next != node {
		g.t.Fatalf("advance to %s: %s, %v", node, next, err)
	}
	return node
}

// TestFindExternalIndexKeepsEarliest pins FindExternal against its
// linear-scan semantics: the answer is the earliest node of the process
// carrying the label, later occurrences never displace it, and a view whose
// frontier stops short of the earliest node finds nothing.
func TestFindExternalIndexKeepsEarliest(t *testing.T) {
	g := newGrower(t, model.MustComplete(2, 1, 2))
	v1, v2 := g.view(1), g.view(2)
	g.absorb(v1, nil, "warmup")
	n2 := g.absorb(v1, nil, "go")
	early := g.absorb(v2, []BasicNode{{Proc: 1, Index: 1}})
	g.absorb(v1, nil, "go") // a later occurrence
	if _, ok := v2.FindExternal(1, "go"); ok {
		t.Fatalf("view at %s finds a label absorbed beyond its frontier", early)
	}
	if n, ok := v1.FindExternal(1, "go"); !ok || n != n2 {
		t.Fatalf("FindExternal = %v, %v, want %s", n, ok, n2)
	}
	g.absorb(v2, []BasicNode{{Proc: 1, Index: 3}})
	if n, ok := v2.FindExternal(1, "go"); !ok || n != n2 {
		t.Fatalf("after the later occurrence: FindExternal = %v, %v, want %s", n, ok, n2)
	}
	if _, ok := v2.FindExternal(2, "go"); ok {
		t.Fatal("label found at the wrong process")
	}
	if _, ok := v1.FindExternal(1, "halt"); ok {
		t.Fatal("phantom label found")
	}
}

// TestViewAbsorbMatchesOffline records the chain run's receipts one batch
// at a time and checks each view moved over the growing run against
// ViewOf on the finished run.
func TestViewAbsorbMatchesOffline(t *testing.T) {
	r := chainRun(t)
	g := newGrower(t, r.Net())
	n1 := g.absorb(g.view(1), nil, "go")
	if n1 != (BasicNode{Proc: 1, Index: 1}) {
		t.Errorf("node = %s", n1)
	}
	v2 := g.view(2)
	n2 := g.absorb(v2, []BasicNode{n1})
	want, err := ViewOf(r, n2)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Equal(want) {
		t.Error("view over the growing run disagrees with the extracted view")
	}
	v3 := g.view(3)
	n3 := g.absorb(v3, []BasicNode{n2})
	want3, err := ViewOf(r, n3)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Equal(want3) {
		t.Error("two-hop view disagrees")
	}
	if got, want := v3.Deliveries(), want3.Deliveries(); !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries = %v, want %v", got, want)
	}
}

func TestAbsorbRejectsUncoveredSender(t *testing.T) {
	g := newGrower(t, model.MustComplete(2, 1, 2))
	// A receipt from a node the run has never recorded.
	_, err := g.append(2, []BasicNode{{Proc: 1, Index: 5}})
	if !errors.Is(err, ErrNoNode) {
		t.Fatalf("unrecorded sender: %v, want ErrNoNode", err)
	}
}

// TestFailedAbsorbLeavesViewUnchanged: every rejected batch is a typed
// error, and neither the run nor any view over it moves — a later
// legitimate batch still gets the next index and the frontier it would
// have had.
func TestFailedAbsorbLeavesViewUnchanged(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).Chan(3, 1, 1, 2).MustBuild()
	g := newGrower(t, net)
	v1, v2 := g.view(1), g.view(2)
	s1 := g.absorb(v1, nil, "go")
	g.absorb(v2, []BasicNode{s1})
	s2 := g.absorb(v1, nil, "tick") // sent, not yet delivered
	r := g.rec.Run()
	appendErr := func(p model.ProcID, from ...BasicNode) func() error {
		return func() error {
			_, err := g.append(p, from)
			return err
		}
	}
	// appendOn records a batch of the given arrivals for process 2.
	appendOn := func(arrivals ...Arrival) func() error {
		return func() error {
			_, err := g.rec.Append(2, g.tick+1, arrivals, nil)
			return err
		}
	}
	// from2 is s2's undelivered message to process 2 claiming channel ch.
	from2 := func(ch model.ChanID) Arrival { return Arrival{From: s2, Send: r.MustTime(s2), Chan: ch} }
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"channel id NoChan", appendOn(from2(model.NoChan)), ErrChannelMissing},
		{"channel id out of range", appendOn(from2(model.ChanID(net.NumChannels()))), ErrChannelMissing},
		{"another channel's id", appendOn(from2(net.ChanIDOf(2, 3))), ErrChannelMissing},
		{"valid then another channel's id", appendOn(from2(net.ChanIDOf(1, 2)),
			Arrival{From: s1, Send: r.MustTime(s1), Chan: net.ChanIDOf(3, 1)}), ErrChannelMissing},
		{"unknown process", appendErr(2, BasicNode{Proc: 7, Index: 1}), ErrChannelMissing},
		{"initial sender", appendErr(2, BasicNode{Proc: 1, Index: 0}), ErrInitialSend},
		{"beyond recorded count", appendErr(2, BasicNode{Proc: 1, Index: 3}), ErrNoNode},
		{"valid then unknown", appendErr(2, s2, BasicNode{Proc: 1, Index: 9}), ErrNoNode},
		{"duplicate in batch", appendErr(2, s2, s2), ErrDuplicateSend},
		{"no channel", appendErr(1, BasicNode{Proc: 2, Index: 1}), ErrChannelMissing},
		{"already delivered", appendErr(2, s1), ErrDuplicateSend},
		{"empty batch", appendErr(2), ErrOrphanNode},
		{"out of tick order", func() error {
			_, err := g.rec.Append(3, g.tick-1, nil, []string{"late"})
			return err
		}, ErrOutOfOrder},
		{"another network's run", func() error {
			_, err := v2.Advance(completeRun(t))
			return err
		}, ErrForeignView},
	}
	views := []*View{v1, v2}
	for _, c := range cases {
		nodes, dels := r.NumNodes(), len(r.Deliveries())
		var origins []BasicNode
		var sizes []int
		for _, v := range views {
			origins, sizes = append(origins, v.Origin()), append(sizes, v.Size())
		}
		if err := c.call(); !errors.Is(err, c.want) {
			t.Fatalf("%s: %v, want %v", c.name, err, c.want)
		}
		if r.NumNodes() != nodes || len(r.Deliveries()) != dels {
			t.Fatalf("%s: run moved to %d nodes and %d deliveries from %d and %d",
				c.name, r.NumNodes(), len(r.Deliveries()), nodes, dels)
		}
		for i, v := range views {
			if v.Origin() != origins[i] || v.Size() != sizes[i] {
				t.Fatalf("%s: view moved to %s (size %d) from %s (size %d)", c.name, v.Origin(), v.Size(), origins[i], sizes[i])
			}
		}
	}
	// The claims of rejected batches were released, and every timeline's
	// next index is unchanged.
	if n := g.absorb(v2, []BasicNode{s2}); n.Index != 2 || v2.Size() != 6 {
		t.Fatalf("after rejected batches: %s with %d nodes, want 2#2 with 6", n, v2.Size())
	}
	v3 := g.view(3)
	n3 := g.absorb(v3, []BasicNode{{Proc: 2, Index: 1}})
	if n3.Index != 1 || v3.Size() != 6 {
		t.Fatalf("3 moved to %s with %d nodes, want 3#1 with 6", n3, v3.Size())
	}
	if n := g.absorb(v1, []BasicNode{n3}); n.Index != 3 {
		t.Fatalf("process 1 moved to %s, want index 3", n)
	}
}

// completeRun records an empty run over a 4-process complete network.
func completeRun(t *testing.T) *Run {
	t.Helper()
	r, err := NewBuilder(model.MustComplete(4, 1, 2), 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPastIsPClosedProperty: past sets computed on random simulated runs are
// precedence-closed: the sender of every delivery received inside is inside.
func TestPastIsPClosedProperty(t *testing.T) {
	f := func(seed int64) bool {
		net := model.MustComplete(4, 1, 3)
		r, err := buildRandomRun(net, seed)
		if err != nil {
			return false
		}
		for _, p := range net.Procs() {
			k := r.LastIndex(p)
			if k == 0 {
				continue
			}
			ps, err := ViewOf(r, BasicNode{Proc: p, Index: k})
			if err != nil {
				return false
			}
			for _, d := range r.Deliveries() {
				if ps.Contains(d.To) && !ps.Contains(d.From) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
