package run

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/clockless/zigzag/internal/model"
)

func TestViewOfMatchesPast(t *testing.T) {
	r := chainRun(t)
	sigma := BasicNode{Proc: 3, Index: 1}
	v, err := ViewOf(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := r.Past(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != ps.Size() {
		t.Errorf("view size %d, past size %d", v.Size(), ps.Size())
	}
	for _, n := range ps.Nodes() {
		if !v.Contains(n) {
			t.Errorf("view missing %s", n)
		}
	}
	if !v.PastSet().Equal(ps) {
		t.Error("PastSet round trip differs")
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

// TestFindExternalIndexKeepsEarliest pins FindExternal against its
// linear-scan semantics: the answer is the earliest node of the process
// carrying the label, later occurrences never displace it, and a view whose
// frontier stops short of the earliest node finds nothing.
func TestFindExternalIndexKeepsEarliest(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	st := NewStore(net)
	v1, v2 := st.LocalView(1), st.LocalView(2)
	absorb(t, v1, nil, "warmup")
	n2 := absorb(t, v1, nil, "go")
	early := absorb(t, v2, []BasicNode{{Proc: 1, Index: 1}})
	absorb(t, v1, nil, "go") // a later occurrence
	if _, ok := v2.FindExternal(1, "go"); ok {
		t.Fatalf("view at %s finds a label absorbed beyond its frontier", early)
	}
	if n, ok := v1.FindExternal(1, "go"); !ok || n != n2 {
		t.Fatalf("FindExternal = %v, %v, want %s", n, ok, n2)
	}
	absorb(t, v2, []BasicNode{{Proc: 1, Index: 3}})
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

// absorb moves v by one batch from the given senders and fails the test on
// error.
func absorb(t *testing.T, v *View, from []BasicNode, labels ...string) BasicNode {
	t.Helper()
	node, err := v.Absorb(from, labels)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func TestViewAbsorbMatchesOffline(t *testing.T) {
	// Replay the chain run's receipts on live views and compare with
	// ViewOf at every step.
	r := chainRun(t)
	st := NewStore(r.Net())
	n1 := absorb(t, st.LocalView(1), nil, "go")
	if n1 != (BasicNode{Proc: 1, Index: 1}) {
		t.Errorf("node = %s", n1)
	}
	v2 := st.LocalView(2)
	n2 := absorb(t, v2, []BasicNode{n1})
	want, err := ViewOf(r, n2)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.PastSet().Equal(want.PastSet()) {
		t.Error("accumulated view disagrees with extracted view")
	}
	v3 := st.LocalView(3)
	n3 := absorb(t, v3, []BasicNode{n2})
	want3, err := ViewOf(r, n3)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.PastSet().Equal(want3.PastSet()) {
		t.Error("two-hop accumulated view disagrees")
	}
	if got, want := v3.Deliveries(), want3.Deliveries(); !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries = %v, want %v", got, want)
	}
}

func TestAbsorbRejectsUncoveredSender(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	v := NewStore(net).LocalView(2)
	// A receipt from a node the store has never recorded.
	_, err := v.Absorb([]BasicNode{{Proc: 1, Index: 5}}, nil)
	if !errors.Is(err, ErrUnknownSender) {
		t.Fatalf("unrecorded sender: %v, want ErrUnknownSender", err)
	}
}

// TestFailedAbsorbLeavesViewUnchanged: every rejected batch is a typed
// error, and neither the view nor the store moves — a later legitimate
// batch still gets the next index and the frontier it would have had.
func TestFailedAbsorbLeavesViewUnchanged(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).Chan(3, 1, 1, 2).MustBuild()
	st := NewStore(net)
	v1, v2 := st.LocalView(1), st.LocalView(2)
	s1 := absorb(t, v1, nil, "go")
	absorb(t, v2, []BasicNode{s1})
	s2 := absorb(t, v1, nil) // sent, not yet delivered
	r := chainRun(t)
	offline, err := ViewOf(r, BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		v    *View
		call func(v *View) error
		want error
	}{
		{"unknown process", v2, absorbErr([]BasicNode{{Proc: 7, Index: 1}}), ErrUnknownSender},
		{"initial sender", v2, absorbErr([]BasicNode{{Proc: 1, Index: 0}}), ErrUnknownSender},
		{"beyond recorded count", v2, absorbErr([]BasicNode{{Proc: 1, Index: 3}}), ErrUnknownSender},
		{"valid then unknown", v2, absorbErr([]BasicNode{s2, {Proc: 1, Index: 9}}), ErrUnknownSender},
		{"duplicate in batch", v2, absorbErr([]BasicNode{s2, s2}), ErrDuplicateSend},
		{"no channel", v1, absorbErr([]BasicNode{{Proc: 2, Index: 1}}), ErrChannelMissing},
		{"already delivered", v2, absorbErr([]BasicNode{s1}), ErrDuplicateSend},
		{"stale view", st.LocalView(1), absorbErr(nil), ErrStaleView},
		{"recorded run's view", offline, absorbErr(nil), ErrForeignView},
		{"another network's run", offline, func(v *View) error {
			_, err := v.Advance(completeRun(t))
			return err
		}, ErrForeignView},
	}
	for _, c := range cases {
		origin, size := c.v.Origin(), c.v.Size()
		var bounds []BasicNode
		for _, p := range net.Procs() {
			b, _ := c.v.Boundary(p)
			bounds = append(bounds, b)
		}
		if err := c.call(c.v); !errors.Is(err, c.want) {
			t.Fatalf("%s: %v, want %v", c.name, err, c.want)
		}
		if c.v.Origin() != origin || c.v.Size() != size {
			t.Fatalf("%s: view moved to %s (size %d) from %s (size %d)", c.name, c.v.Origin(), c.v.Size(), origin, size)
		}
		for i, p := range net.Procs() {
			if b, _ := c.v.Boundary(p); b != bounds[i] {
				t.Fatalf("%s: boundary of p%d moved to %s from %s", c.name, p, b, bounds[i])
			}
		}
	}
	// The store did not move either: the claims of rejected batches were
	// released, and every timeline's next index is unchanged.
	if n := absorb(t, v2, []BasicNode{s2}); n.Index != 2 || v2.Size() != 6 {
		t.Fatalf("after rejected batches: %s with %d nodes, want 2#2 with 6", n, v2.Size())
	}
	v3 := st.LocalView(3)
	n3 := absorb(t, v3, []BasicNode{{Proc: 2, Index: 1}})
	if n3.Index != 1 || v3.Size() != 6 {
		t.Fatalf("3 moved to %s with %d nodes, want 3#1 with 6", n3, v3.Size())
	}
	if n := absorb(t, v1, []BasicNode{n3}); n.Index != 3 {
		t.Fatalf("process 1 moved to %s, want index 3", n)
	}
}

// absorbErr returns a case body that absorbs one batch from the senders.
func absorbErr(from []BasicNode) func(v *View) error {
	return func(v *View) error {
		_, err := v.Absorb(from, nil)
		return err
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
			ps, err := r.Past(BasicNode{Proc: p, Index: k})
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
