package live

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// TestLiveMatchesSimulator: the simulator records exactly the run the
// reference environment does for the same configuration and policy — on
// Figure 2b, and on a schedule whose simultaneous externals are listed out
// of process order (they must stay in configuration order).
func TestLiveMatchesSimulator(t *testing.T) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	outOfOrder := []run.ExternalEvent{
		{Proc: 3, Time: 1, Label: "c"}, {Proc: 1, Time: 1, Label: "a"},
		{Proc: 2, Time: 4, Label: "b"}, {Proc: 1, Time: 4, Label: "a2"},
	}
	configs := []Config{
		{Net: sc.Net, Horizon: sc.Horizon, Externals: sc.Externals},
		{Net: model.MustComplete(3, 1, 3), Horizon: 12, Externals: outOfOrder},
	}
	// Policies are stateful (Random consumes its generator), so each engine
	// gets a fresh instance from a factory.
	factories := []func() sim.Policy{
		func() sim.Policy { return sim.Eager{} },
		func() sim.Policy { return sim.Lazy{} },
		func() sim.Policy { return sim.NewRandom(8) },
	}
	for i, cfg := range configs {
		for _, mk := range factories {
			label := fmt.Sprintf("config %d/%s", i, mk().Name())
			cfg.Policy = mk()
			ref, err := refExecute(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := ref.Run.Validate(); err != nil {
				t.Fatalf("%s: reference run invalid: %v", label, err)
			}
			got, err := sim.Simulate(sim.Config{Net: cfg.Net, Horizon: cfg.Horizon, Policy: mk(), Externals: cfg.Externals})
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalRuns(t, label, got, ref.Run)
		}
	}
}

// TestOnlineProtocol2MatchesOffline is the library's honesty theorem: the
// online agent — deciding from its view alone, with no clock — acts at exactly the node and time the offline analysis of the
// recorded run says the optimal protocol acts.
func TestOnlineProtocol2MatchesOffline(t *testing.T) {
	scenarios := []*scenario.Scenario{
		scenario.Figure1(scenario.DefaultFigure1()),
		scenario.Figure2b(scenario.DefaultFigure2()),
		scenario.Figure4(scenario.DefaultFigure4()),
		scenario.Trains(3),
		scenario.Takeoff(4),
		scenario.Circuits(6),
	}
	for _, sc := range scenarios {
		for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(4)} {
			agent := &Protocol2{Task: *sc.Task}
			res, err := Replay(Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: pol, Externals: sc.Externals,
				Agents: map[model.ProcID]Agent{sc.Task.B: agent},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, pol.Name(), err)
			}
			if err := agent.Err(); err != nil {
				t.Fatalf("%s/%s: agent: %v", sc.Name, pol.Name(), err)
			}
			offline, err := sc.Task.RunOptimal(res.Run)
			if err != nil {
				t.Fatalf("%s/%s: offline: %v", sc.Name, pol.Name(), err)
			}
			var online *Action
			for i := range res.Actions {
				if res.Actions[i].Label == "b" {
					online = &res.Actions[i]
					break
				}
			}
			if offline.Acted != (online != nil) {
				t.Fatalf("%s/%s: offline acted=%v, online acted=%v",
					sc.Name, pol.Name(), offline.Acted, online != nil)
			}
			if online == nil {
				continue
			}
			if online.Node != offline.ActNode || online.Time != offline.ActTime {
				t.Errorf("%s/%s: online %s@%d vs offline %s@%d",
					sc.Name, pol.Name(), online.Node, online.Time, offline.ActNode, offline.ActTime)
			}
		}
	}
}

// TestOnlineNeverActsWhenInfeasible: the online agent stays silent when the
// bound is not knowable.
func TestOnlineNeverActsWhenInfeasible(t *testing.T) {
	p := scenario.DefaultFigure1()
	p.X = p.LCB - p.UCA + 1
	sc := scenario.Figure1(p)
	agent := &Protocol2{Task: *sc.Task}
	res, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.Lazy{}, Externals: sc.Externals,
		Agents: map[model.ProcID]Agent{sc.Task.B: agent},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Actions {
		if a.Label == "b" {
			t.Fatalf("online agent acted at %s for an infeasible bound", a.Node)
		}
	}
}

// TestLiveViewsAreStructureOnly: views accumulated online agree exactly
// with views extracted from the recorded run at the same nodes.
func TestLiveViewsAreStructureOnly(t *testing.T) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	type seen struct {
		node run.BasicNode
		size int
	}
	var got []seen
	probe := AgentFunc(func(v *run.View, _ []string) []string {
		got = append(got, seen{node: v.Origin(), size: v.Size()})
		return nil
	})
	res, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.Eager{}, Externals: sc.Externals,
		Agents: map[model.ProcID]Agent{sc.Proc("B"): probe},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("probe never ran")
	}
	for _, s := range got {
		want, err := run.ViewOf(res.Run, s.node)
		if err != nil {
			t.Fatal(err)
		}
		if s.size != want.Size() {
			t.Errorf("node %s: online view size %d, offline %d", s.node, s.size, want.Size())
		}
	}
}

// TestLiveCustomAgentActions: multiple agents, multiple actions, recorded
// in deterministic order.
func TestLiveCustomAgentActions(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	echo := AgentFunc(func(v *run.View, ext []string) []string {
		if len(ext) > 0 {
			return []string{"heard:" + ext[0]}
		}
		return nil
	})
	res, err := Replay(Config{
		Net: net, Horizon: 20, Policy: sim.Eager{},
		Externals: []run.ExternalEvent{{Proc: 1, Time: 1, Label: "ping"}},
		Agents:    map[model.ProcID]Agent{1: echo, 2: echo},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Actions {
		if a.Proc == 1 && a.Label == "heard:ping" && a.Time == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("external-triggered action missing: %v", res.Actions)
	}
}

// TestReplayRejectsForeignAgentKeys: an agent keyed by a process outside
// the network would never be called, so Replay refuses the configuration
// before stepping, naming the lowest such key, and calls no agent at all.
func TestReplayRejectsForeignAgentKeys(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	calls := 0
	a := AgentFunc(func(*run.View, []string) []string {
		calls++
		return nil
	})
	for _, c := range []struct {
		agents map[model.ProcID]Agent
		lowest model.ProcID
	}{
		{map[model.ProcID]Agent{0: a, 4: a}, 0},
		{map[model.ProcID]Agent{1: a, 4: a}, 4},
		{map[model.ProcID]Agent{1: a, 7: a, -2: a}, -2},
	} {
		res, err := Replay(Config{Net: net, Horizon: 10, Policy: sim.Eager{}, Agents: c.agents})
		if !errors.Is(err, sim.ErrBadConfig) || res != nil {
			t.Fatalf("agents %v: got %v, %v; want ErrBadConfig", c.agents, res, err)
		}
		if want := fmt.Sprintf("process %d outside", c.lowest); !strings.Contains(err.Error(), want) {
			t.Errorf("agents %v: error %q does not name %q", c.agents, err, want)
		}
	}
	if calls != 0 {
		t.Errorf("agents were called %d times on a rejected configuration", calls)
	}
}

// labelProbe records the labels its live view reports at one node.
type labelProbe struct {
	at     run.BasicNode
	labels []string
	seen   bool
}

func (l *labelProbe) OnState(v *run.View, _ []string) []string {
	if v.Contains(l.at) && !l.seen {
		l.labels, l.seen = v.ExternalsAt(l.at), true
	}
	return nil
}

// TestRepeatedExternalLabel: an external label scheduled twice for one
// node is recorded twice, and the live view, ViewOf on the recorded run
// and Run.ExternalsAt all report both, from the process itself and from a
// receiver that learns of the node by message.
func TestRepeatedExternalLabel(t *testing.T) {
	at := run.BasicNode{Proc: 1, Index: 1}
	self, peer := &labelProbe{at: at}, &labelProbe{at: at}
	go1 := run.ExternalEvent{Proc: 1, Time: 1, Label: "go"}
	res, err := Replay(Config{
		Net: model.MustComplete(3, 1, 2), Horizon: 10, Policy: sim.Eager{},
		Externals: []run.ExternalEvent{go1, go1},
		Agents:    map[model.ProcID]Agent{1: self, 2: peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"go", "go"}
	var recorded []string
	for _, e := range res.Run.ExternalsAt(at) {
		recorded = append(recorded, e.Label)
	}
	offline, err := run.ViewOf(res.Run, at)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]string{
		"live view": self.labels, "receiver's live view": peer.labels,
		"ViewOf": offline.ExternalsAt(at), "Run.ExternalsAt": recorded,
	} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: ExternalsAt(%s) = %v, want %v", name, at, got, want)
		}
	}
}
