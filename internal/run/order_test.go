package run_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// event is one Builder event: a message or, when msg is nil, an external.
type event struct {
	msg *run.MessageEvent
	ext run.ExternalEvent
}

// eventsOf lists a recorded run's deliveries and externals as Builder
// events, in the run's tick order.
func eventsOf(r *run.Run) []event {
	var out []event
	for _, d := range r.Deliveries() {
		out = append(out, event{msg: &run.MessageEvent{
			FromProc: d.From.Proc, ToProc: d.To.Proc, SendTime: d.SendTime, RecvTime: d.RecvTime,
		}})
	}
	for _, e := range r.Externals() {
		out = append(out, event{ext: run.ExternalEvent{Proc: e.To.Proc, Time: e.Time, Label: e.Label}})
	}
	return out
}

// build feeds the events to a Builder in the given order.
func build(net *model.Network, horizon model.Time, events []event, tolerant bool) (*run.Run, error) {
	bl := run.NewBuilder(net, horizon)
	if tolerant {
		bl.Tolerate()
	}
	for _, ev := range events {
		if ev.msg != nil {
			bl.Message(*ev.msg)
		} else {
			bl.External(ev.ext)
		}
	}
	return bl.Build()
}

// sameRun compares two recordings on everything the run exposes and
// describes the first difference ("" if none).
func sameRun(got, want *run.Run) string {
	switch {
	case got.Fingerprint() != want.Fingerprint():
		return fmt.Sprintf("fingerprint %#x, want %#x", got.Fingerprint(), want.Fingerprint())
	case !reflect.DeepEqual(got.Deliveries(), want.Deliveries()):
		return "deliveries differ"
	case !reflect.DeepEqual(got.Externals(), want.Externals()):
		return fmt.Sprintf("externals %v, want %v", got.Externals(), want.Externals())
	case !reflect.DeepEqual(got.PendingMessages(), want.PendingMessages()):
		return "pending messages differ"
	}
	for _, p := range want.Net().Procs() {
		if got.LastIndex(p) != want.LastIndex(p) {
			return fmt.Sprintf("p%d has %d states, want %d", p, got.LastIndex(p), want.LastIndex(p))
		}
		for k := 0; k <= want.LastIndex(p); k++ {
			b := run.BasicNode{Proc: p, Index: k}
			gp, err := run.ViewOf(got, b)
			if err != nil {
				return err.Error()
			}
			wp, _ := run.ViewOf(want, b)
			if !gp.Equal(wp) {
				return fmt.Sprintf("past(%s) differs", b)
			}
		}
	}
	return ""
}

// TestBuildAnyEventOrder: Builder.Build and sim.Stepper fill a run through
// one append path, so feeding a Builder the events of a simulated run in
// any insertion order records the same run — fingerprint, deliveries,
// externals, pending messages and every node's past. It covers the
// registry under the default policies, and one fault plan per family
// through the tolerant path.
func TestBuildAnyEventOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, r *run.Run, tolerant bool) {
		t.Helper()
		events := eventsOf(r)
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		got, err := build(r.Net(), r.Horizon(), events, tolerant)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := sameRun(got, r); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
	}
	for _, sc := range scenario.All(scenario.Registry(0)) {
		for _, pol := range sweep.DefaultPolicies() {
			r, err := sc.Simulate(pol.New(1))
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, pol.Name, err)
			}
			check(sc.Name+"/"+pol.Name, r, false)
		}
	}
	sc := scenario.MultiAgent(4)
	for _, fam := range faults.Families() {
		plan, err := faults.NewPlan(fam, sc.Net, sc.Horizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, rep, err := sim.SimulateFaulty(sim.Config{
			Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(1), Externals: sc.Externals, Faults: plan,
		})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if len(rep.Violations) == 0 && len(rep.Crashed) == 0 {
			t.Fatalf("%s: the plan injected nothing", fam)
		}
		check(sc.Name+"/"+fam, r, true)
	}
}

// buildErrors are the typed errors Build may report for a corrupted event.
var buildErrors = []error{
	run.ErrBadDelivery, run.ErrNoNode, run.ErrDuplicateSend, run.ErrChannelMissing,
	run.ErrInitialSend, run.ErrOutsideHorizon, model.ErrBadProc,
}

// FuzzBuildEventOrder decodes bytes into a tiny network, a policy seed, an
// external schedule, an event permutation and an optional corruption of
// one event. Build must record the simulated run exactly from the permuted
// events, and a corrupted log must build or fail with a typed error —
// never panic.
func FuzzBuildEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 1, 7, 2, 1, 5, 0, 3, 9, 1, 4})
	f.Add([]byte{2, 1, 0, 3, 1, 0, 7, 3, 0, 5, 2, 8, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 || len(data) > 256 {
			return
		}
		n := 2 + int(data[0]%3)
		upper := 1 + int(data[1]%3)
		var net *model.Network
		if data[2]%2 == 0 {
			net = model.MustComplete(n, 1, upper)
		} else {
			nb := model.NewBuilder(n)
			for p := 1; p <= n; p++ {
				nb.Chan(model.ProcID(p), model.ProcID(p%n+1), 1, upper)
			}
			net = nb.MustBuild()
		}
		horizon := model.Time(4 + data[3]%8)
		exts := []run.ExternalEvent{{Proc: model.ProcID(1 + int(data[4])%n), Time: model.Time(1 + data[5]%3), Label: "go"}}
		if data[4]&0x80 != 0 {
			// A second external: the same label at the same node or a
			// distinct label at another.
			second := exts[0]
			if data[5]&0x80 != 0 {
				second = run.ExternalEvent{Proc: model.ProcID(1 + int(data[5])%n), Time: 2, Label: "stop"}
			}
			exts = append(exts, second)
		}
		r, err := sim.Simulate(sim.Config{Net: net, Horizon: horizon, Policy: sim.NewRandom(int64(data[6])), Externals: exts})
		if err != nil {
			t.Fatal(err)
		}
		events := eventsOf(r)
		for i, b := range data[8:] {
			j, k := i%len(events), int(b)%len(events)
			events[j], events[k] = events[k], events[j]
		}
		corrupted := corrupt(events, data[7], n)
		got, err := build(net, horizon, events, false)
		if corrupted {
			if err != nil && !typed(err) {
				t.Fatalf("corrupted log: untyped error %v", err)
			}
			if err == nil {
				_ = got.Validate()
			}
			return
		}
		if err != nil {
			t.Fatalf("permuted log: %v", err)
		}
		if diff := sameRun(got, r); diff != "" {
			t.Fatal(diff)
		}
	})
}

// corrupt applies the corruption op selects to one event, reporting
// whether it changed anything.
func corrupt(events []event, op byte, n int) bool {
	if op%8 >= 5 {
		return false
	}
	ev := events[int(op>>3)%len(events)]
	if ev.msg == nil {
		ev.ext.Time += model.Time(op>>6) - 2
		events[int(op>>3)%len(events)] = ev
		return true
	}
	m := *ev.msg
	switch op % 8 {
	case 0:
		m.RecvTime += 1 + model.Time(op>>6)
	case 1:
		m.SendTime -= 1 + model.Time(op>>6)
	case 2:
		m.FromProc = model.ProcID(1 + (int(m.FromProc)+int(op>>6))%(n+1))
	case 3:
		m.ToProc = model.ProcID(int(op>>6) % (n + 2))
	case 4:
		m.RecvTime = m.SendTime
	}
	events[int(op>>3)%len(events)].msg = &m
	return true
}

// typed reports whether err wraps one of buildErrors.
func typed(err error) bool {
	for _, want := range buildErrors {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}
