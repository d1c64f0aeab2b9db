package run_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// recycleCase is one execution of the reuse sequence. Seeded policies
// are stateful, so cfg builds a fresh configuration per recording.
type recycleCase struct {
	name string
	cfg  func() sim.Config
}

// recycleCases records executions whose process count rises and falls,
// whose horizon rises and falls, with and without externals, and a faulted
// (tolerant) recording followed by strict ones.
func recycleCases(t *testing.T) []recycleCase {
	t.Helper()
	heavy := scenario.MultiAgentHeavy(16)
	fig := scenario.Figure2b(scenario.DefaultFigure2())
	faulty := scenario.MultiAgentFaulty(4, "deadline")
	plan, err := faults.NewPlan(faulty.FaultFamily, faulty.Net, faulty.Horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []recycleCase{
		{"line2", func() sim.Config {
			return sim.Config{Net: model.MustLine(2, 1, 3), Horizon: 12, Policy: sim.NewRandom(1), Externals: sim.GoAt(1, 1, "go")}
		}},
		{"complete16", func() sim.Config {
			return sim.Config{Net: model.MustComplete(16, 1, 2), Horizon: 10, Policy: sim.NewRandom(2),
				Externals: []run.ExternalEvent{{Proc: 3, Time: 1, Label: "go"}, {Proc: 3, Time: 4, Label: "go"}, {Proc: 9, Time: 2, Label: "b"}}}
		}},
		{"line3", func() sim.Config {
			return sim.Config{Net: model.MustLine(3, 1, 2), Horizon: 9, Policy: sim.Lazy{}, Externals: sim.GoAt(2, 2, "go")}
		}},
		{"line2-quiet", func() sim.Config { return sim.Config{Net: model.MustLine(2, 1, 3), Horizon: 12} }},
		{"coord-heavy-m16", func() sim.Config {
			return sim.Config{Net: heavy.Net, Horizon: heavy.Horizon, Policy: sim.NewHeavyTail(5), Externals: heavy.Externals}
		}},
		{"figure2b", func() sim.Config {
			return sim.Config{Net: fig.Net, Horizon: fig.Horizon, Policy: sim.Lazy{}, Externals: fig.Externals}
		}},
		{"coord-faulty-m4-deadline", func() sim.Config {
			return sim.Config{Net: faulty.Net, Horizon: faulty.Horizon, Policy: sim.NewRandom(3), Externals: faulty.Externals, Faults: plan}
		}},
		{"coord-m4", func() sim.Config {
			return sim.Config{Net: faulty.Net, Horizon: faulty.Horizon, Policy: sim.NewRandom(3), Externals: faulty.Externals}
		}},
		{"line2-again", func() sim.Config {
			return sim.Config{Net: model.MustLine(2, 1, 3), Horizon: 12, Policy: sim.NewRandom(1), Externals: sim.GoAt(1, 1, "go")}
		}},
	}
}

// TestRecycledRecordingMatchesFresh records executions back to back, each
// into the tables of the one before it (Run.Recycle), and checks every
// recording against a fresh recording of the same execution. The recycled
// donor must panic, or read as empty, rather than read its successor.
func TestRecycledRecordingMatchesFresh(t *testing.T) {
	run.DrainFreeTables()
	var prev *run.Run
	for _, c := range recycleCases(t) {
		want, err := sim.Simulate(c.cfg())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if prev != nil {
			prev.Recycle()
			if n := run.FreeTables(); n != 1 {
				t.Fatalf("%s: %d table sets free after Recycle, want 1", c.name, n)
			}
		}
		got, err := sim.Simulate(c.cfg())
		if err != nil {
			t.Fatalf("%s: recycled: %v", c.name, err)
		}
		if n := run.FreeTables(); n != 0 {
			t.Fatalf("%s: the recorder left %d recycled table sets unused", c.name, n)
		}
		sameRecording(t, c.name, got, want)
		if prev != nil {
			checkRecycled(t, c.name, prev)
		}
		prev = got
	}
	prev.Recycle()
	prev.Recycle() // recycling a zeroed run does nothing
	if n := run.FreeTables(); n != 1 {
		t.Fatalf("%d table sets free after recycling twice, want 1", n)
	}
	run.DrainFreeTables()
}

// sameRecording checks got against want in every table a consumer reads.
func sameRecording(t *testing.T, name string, got, want *run.Run) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("%s: fingerprint %#x, fresh %#x", name, got.Fingerprint(), want.Fingerprint())
	}
	if !slices.Equal(got.Deliveries(), want.Deliveries()) {
		t.Errorf("%s: deliveries differ from the fresh recording", name)
	}
	if !slices.Equal(got.PendingMessages(), want.PendingMessages()) {
		t.Errorf("%s: pending messages differ from the fresh recording: %v\n%v", name, got.PendingMessages(), want.PendingMessages())
	}
	if !slices.Equal(got.Externals(), want.Externals()) {
		t.Errorf("%s: externals differ from the fresh recording", name)
	}
	if fmt.Sprint(got.Validate()) != fmt.Sprint(want.Validate()) {
		t.Errorf("%s: Validate = %v, fresh %v", name, got.Validate(), want.Validate())
	}
	labels := map[string]bool{"absent": true}
	for _, e := range want.Externals() {
		labels[e.Label] = true
	}
	for _, p := range want.Net().Procs() {
		if got.LastIndex(p) != want.LastIndex(p) {
			t.Fatalf("%s: process %d ends at %d, fresh at %d", name, p, got.LastIndex(p), want.LastIndex(p))
		}
		last := run.BasicNode{Proc: p, Index: want.LastIndex(p)}
		gv, err := run.ViewOf(got, last)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := run.ViewOf(want, last)
		if err != nil {
			t.Fatal(err)
		}
		for l := range labels {
			gn, gok := gv.FindExternal(p, l)
			wn, wok := wv.FindExternal(p, l)
			if gn != wn || gok != wok {
				t.Errorf("%s: first %q at process %d is %v/%v, fresh %v/%v", name, l, p, gn, gok, wn, wok)
			}
		}
	}
}

// checkRecycled checks that a recycled run reads nothing of the run that
// took over its tables: accessors that reach the network or a timeline
// panic, and the tables read as empty.
func checkRecycled(t *testing.T, name string, r *run.Run) {
	t.Helper()
	b := run.BasicNode{Proc: 1, Index: 1}
	for what, use := range map[string]func(){
		"LastIndex":   func() { r.LastIndex(1) },
		"Time":        func() { _, _ = r.Time(b) },
		"NodeAt":      func() { r.NodeAt(1, 1) },
		"Fingerprint": func() { r.Fingerprint() },
		"Validate":    func() { _ = r.Validate() },
		"ViewOf":      func() { _, _ = run.ViewOf(r, b) },
	} {
		if !panics(use) {
			t.Errorf("%s: %s on the recycled donor did not panic", name, what)
		}
	}
	if r.NumDeliveries() != 0 || len(r.Deliveries()) != 0 || len(r.PendingMessages()) != 0 || len(r.Externals()) != 0 {
		t.Errorf("%s: the recycled donor still reads tables", name)
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRecycledRecorderStaysStrict records a strict run into the tables of
// a faulted, tolerant recording: it must still reject a latency outside
// its channel's window.
func TestRecycledRecorderStaysStrict(t *testing.T) {
	run.DrainFreeTables()
	c := recycleCases(t)[6]
	if c.cfg().Faults == nil {
		t.Fatalf("%s is not faulted", c.name)
	}
	r, err := sim.Simulate(c.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Validate() == nil {
		t.Fatalf("%s recorded no bound violation", c.name)
	}
	r.Recycle()
	net := model.MustLine(2, 2, 3)
	rc, err := run.NewRecorder(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n := run.FreeTables(); n != 0 {
		t.Fatalf("the recorder left %d recycled table sets unused", n)
	}
	from, err := rc.Append(1, 1, nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rc.Append(2, 2, []run.Arrival{{From: from, Send: 1, Chan: net.ChanIDOf(1, 2)}}, nil)
	if !errors.Is(err, run.ErrBadDelivery) {
		t.Fatalf("latency 1 on a [2,3] channel: got %v, want ErrBadDelivery", err)
	}
}
