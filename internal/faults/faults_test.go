package faults

import (
	"errors"
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/model"
)

// testNet is a 3-process ring: 1->2->3->1, bounds [1,2] each.
func testNet(t *testing.T) *model.Network {
	t.Helper()
	return model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).Chan(3, 1, 1, 2).MustBuild()
}

func TestPlanConstructors(t *testing.T) {
	p := &Plan{Name: "manual", Faults: []Fault{
		Crash(2, 5),
		LinkDown(1, 2, 3, 7),
		Deadline(2, 3, 2),
		DeadlineDuring(3, 1, 1, 4, 6),
	}}
	if p.Faults[0].Kind != KindCrash || p.Faults[0].Proc != 2 || p.Faults[0].A != 5 {
		t.Fatalf("Crash built %+v", p.Faults[0])
	}
	if p.Faults[1].Kind != KindLinkDown || p.Faults[1].A != 3 || p.Faults[1].B != 7 {
		t.Fatalf("LinkDown built %+v", p.Faults[1])
	}
	if p.Faults[2].B != 0 {
		t.Fatalf("Deadline should leave B zero (to horizon), got %+v", p.Faults[2])
	}
	for _, f := range p.Faults {
		if f.String() == "" {
			t.Fatalf("empty String for %+v", f)
		}
	}
	if p.String() == "" {
		t.Fatal("empty plan String")
	}
}

func TestNewPlanDeterministicAndDistinct(t *testing.T) {
	net := testNet(t)
	for _, fam := range Families() {
		if !ValidFamily(fam) {
			t.Fatalf("family %q not valid", fam)
		}
		a, err := NewPlan(fam, net, 50, 7)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		b, err := NewPlan(fam, net, 50, 7)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed, different plans:\n%v\n%v", fam, a, b)
		}
		c, err := NewPlan(fam, net, 50, 8)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if reflect.DeepEqual(a.Faults, c.Faults) {
			t.Fatalf("%s: seeds 7 and 8 drew identical faults %v", fam, a.Faults)
		}
		if len(a.Faults) == 0 {
			t.Fatalf("%s: empty plan", fam)
		}
		// Every generated plan must compile against its own network.
		if _, err := NewInjector(a, net, 50); err != nil {
			t.Fatalf("%s: generated plan rejected: %v", fam, err)
		}
	}
	if ValidFamily("bogus") {
		t.Fatal("bogus family accepted")
	}
	if _, err := NewPlan("bogus", net, 50, 1); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("bogus family error = %v", err)
	}
}

func TestNewInjectorValidation(t *testing.T) {
	net := testNet(t)
	bad := []struct {
		name string
		plan *Plan
	}{
		{"nil plan", nil},
		{"unknown proc", &Plan{Faults: []Fault{Crash(9, 5)}}},
		{"crash at zero", &Plan{Faults: []Fault{Crash(1, 0)}}},
		{"no such channel", &Plan{Faults: []Fault{LinkDown(1, 3, 2, 4)}}},
		{"empty window", &Plan{Faults: []Fault{LinkDown(1, 2, 5, 4)}}},
		{"zero slack", &Plan{Faults: []Fault{DeadlineDuring(1, 2, 0, 2, 4)}}},
		{"unknown kind", &Plan{Faults: []Fault{{Kind: FaultKind(99)}}}},
	}
	for _, tc := range bad {
		if _, err := NewInjector(tc.plan, net, 20); !errors.Is(err, ErrBadPlan) {
			t.Fatalf("%s: error = %v, want ErrBadPlan", tc.name, err)
		}
	}
	if _, err := NewInjector(&Plan{Faults: []Fault{Crash(1, 5)}}, nil, 20); !errors.Is(err, ErrBadPlan) {
		t.Fatal("nil network accepted")
	}
	if _, err := NewInjector(&Plan{Faults: []Fault{Crash(1, 5)}}, net, 0); !errors.Is(err, ErrBadPlan) {
		t.Fatal("zero horizon accepted")
	}
}

func TestInjectorTaintSeeding(t *testing.T) {
	net := testNet(t)
	// Crash 2 at tick 10: in-neighbor 1 (channel 1->2, U=2) is tainted from
	// 10-2=8 — its sends from 8 on may never be received.
	inj, err := NewInjector(&Plan{Faults: []Fault{Crash(2, 10)}}, net, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Dead(2, 10) || inj.Dead(2, 9) || inj.Dead(1, 20) {
		t.Fatal("crash schedule wrong")
	}
	if inj.DegradedAt(1, 7) {
		t.Fatal("in-neighbor tainted too early")
	}
	if !inj.DegradedAt(1, 8) {
		t.Fatal("in-neighbor of crashed proc not tainted from c-U")
	}
	if inj.DegradedAt(3, 20) {
		t.Fatal("process 3 has no channel into 2, must stay clean")
	}

	// LinkDown 1->2 over [5,8]: sender 1 clairvoyantly tainted from 5.
	inj2, err := NewInjector(&Plan{Faults: []Fault{LinkDown(1, 2, 5, 8)}}, net, 20)
	if err != nil {
		t.Fatal(err)
	}
	if inj2.DegradedAt(1, 4) || !inj2.DegradedAt(1, 5) {
		t.Fatal("link-down sender taint window wrong")
	}
}

func TestInjectorHooks(t *testing.T) {
	net := testNet(t)
	id12 := net.ChanIDOf(1, 2)
	id23 := net.ChanIDOf(2, 3)

	// In-window send on the dead link drops and silences the receiver from
	// the missed deadline t+U+1 = 5+2+1.
	injL, err := NewInjector(&Plan{Faults: []Fault{LinkDown(1, 2, 5, 8)}}, net, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !injL.SendDrop(id12, 1, 2, 5) {
		t.Fatal("in-window send not dropped")
	}
	if injL.SendDrop(id12, 1, 2, 9) {
		t.Fatal("post-window send dropped")
	}
	if injL.DegradedAt(2, 7) || !injL.DegradedAt(2, 8) {
		t.Fatal("dropped delivery must silence receiver from t+U+1")
	}

	// In-window send on the deadline channel stretches to U+slack = 5 and
	// silences the receiver from t+U+1 = 4+2+1.
	inj, err := NewInjector(&Plan{Faults: []Fault{DeadlineDuring(2, 3, 3, 4, 6)}}, net, 30)
	if err != nil {
		t.Fatal(err)
	}
	if lat := inj.Delay(id23, 2, 3, 4, 1); lat != 5 {
		t.Fatalf("delayed latency = %d, want 5", lat)
	}
	if lat := inj.Delay(id23, 2, 3, 7, 1); lat != 1 {
		t.Fatalf("post-window latency = %d, want the policy's 1", lat)
	}
	if inj.DegradedAt(3, 6) || !inj.DegradedAt(3, 7) {
		t.Fatal("delayed delivery must silence receiver from t+U+1")
	}

	// The late delivery itself records the Late violation; the dropped link
	// send recorded a Dropped one. Every violation is a typed error wrapping
	// ErrBoundViolation and renders a message.
	inj.Deliver(id23, 2, 3, 4, 9)
	all := append(inj.Report().Violations, injL.Report().Violations...)
	var kinds []ViolationKind
	for _, v := range all {
		kinds = append(kinds, v.Kind)
		if !errors.Is(v, ErrBoundViolation) {
			t.Fatalf("violation %v does not wrap ErrBoundViolation", v)
		}
		if v.Error() == "" || v.Kind.String() == "" {
			t.Fatalf("violation %v renders empty", v)
		}
	}
	if len(kinds) != 2 || kinds[0] != Late || kinds[1] != Dropped {
		t.Fatalf("violations = %v, want one Late then one Dropped", all)
	}
}

func TestViolationSorting(t *testing.T) {
	vs := []*Violation{
		{Kind: Late, At: 9, SendTime: 4, From: 2, To: 3},
		{Kind: Dropped, At: 8, SendTime: 5, From: 1, To: 2},
		{Kind: Discarded, At: 8, SendTime: 4, From: 1, To: 2},
		{Kind: Discarded, At: 8, SendTime: 4, From: 1, To: 3},
	}
	sortViolations(vs)
	want := []struct {
		at, send model.Time
		to       model.ProcID
	}{{8, 4, 2}, {8, 4, 3}, {8, 5, 2}, {9, 4, 3}}
	for i, w := range want {
		if vs[i].At != w.at || vs[i].SendTime != w.send || vs[i].To != w.to {
			t.Fatalf("position %d: got %+v, want %+v", i, vs[i], w)
		}
	}
}

func TestReportSets(t *testing.T) {
	net := testNet(t)
	inj, err := NewInjector(&Plan{Faults: []Fault{Crash(2, 10)}}, net, 20)
	if err != nil {
		t.Fatal(err)
	}
	rep := inj.Report()
	if !reflect.DeepEqual(rep.Crashed, []model.ProcID{2}) {
		t.Fatalf("Crashed = %v", rep.Crashed)
	}
	// Proc 1 is tainted (in-neighbor), proc 3 clean; a crashed proc is never
	// also listed degraded.
	if !reflect.DeepEqual(rep.Degraded, []model.ProcID{1}) {
		t.Fatalf("Degraded = %v", rep.Degraded)
	}
	if reason := inj.DegradeReason(1, 9); !errors.Is(reason, ErrBoundViolation) {
		t.Fatalf("DegradeReason = %v", reason)
	}
}
