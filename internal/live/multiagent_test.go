package live

import (
	"errors"
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// runMultiAgent executes a multi-agent coordination scenario with one
// Protocol2 agent per task — all sharing one per-run engine stamped from
// eng, or each on a private one-handle run when eng is nil — and returns
// the result plus each agent (indexed like sc.Tasks).
func runMultiAgent(t *testing.T, sc *scenario.Scenario, eng *bounds.NetworkEngine, seed int64) (*Result, []*Protocol2) {
	t.Helper()
	agents, agentMap := NewTaskAgents(sc.Tasks)
	res, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(seed),
		Externals: sc.Externals, Agents: agentMap, Engine: eng,
	})
	if err != nil {
		t.Fatalf("%s shared=%v: %v", sc.Name, eng != nil, err)
	}
	for i, a := range agents {
		if err := a.Err(); err != nil {
			t.Fatalf("%s shared=%v agent %d: %v", sc.Name, eng != nil, i, err)
		}
	}
	return res, agents
}

// actionsOf extracts each agent's act (node, time) from the result, keyed
// by its ActLabel.
func actionsOf(res *Result) map[string]Action {
	out := make(map[string]Action, len(res.Actions))
	for _, a := range res.Actions {
		out[a.Label] = a
	}
	return out
}

// TestProtocol2SharedMultiAgentMatchesOffline is the multi-agent
// acceptance test of the shared per-run engine, exercised end to end
// through the live environment: m Protocol2 agents sharing ONE
// bounds.Shared engine must (a) record the same run as the per-agent
// configuration (each agent on its private one-handle run) under the same
// policy seed, (b) act at exactly the same nodes and times as those agents, and (c) agree
// with the offline (coord.Task).RunOptimal analysis of the recording for
// every task.
func TestProtocol2SharedMultiAgentMatchesOffline(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		sc := scenario.MultiAgent(m)
		seed := int64(29 + m)
		sharedRes, sharedAgents := runMultiAgent(t, sc, bounds.NewNetworkEngine(sc.Net), seed)
		onlineRes, _ := runMultiAgent(t, sc, nil, seed)

		requireIdenticalRuns(t, fmt.Sprintf("%s engines", sc.Name), sharedRes.Run, onlineRes.Run)
		sharedActs, onlineActs := actionsOf(sharedRes), actionsOf(onlineRes)
		if len(sharedActs) != len(onlineActs) {
			t.Fatalf("%s: %d shared actions vs %d online", sc.Name, len(sharedActs), len(onlineActs))
		}
		for label, act := range onlineActs {
			got, ok := sharedActs[label]
			if !ok || got != act {
				t.Fatalf("%s: action %q: shared %+v online %+v", sc.Name, label, got, act)
			}
		}

		for i := range sc.Tasks {
			offline, err := sc.Tasks[i].RunOptimal(sharedRes.Run)
			if err != nil {
				t.Fatalf("%s task %d offline: %v", sc.Name, i, err)
			}
			label := TaskLabel(i)
			act, acted := sharedActs[label]
			if offline.Acted != acted {
				t.Fatalf("%s task %d: offline acted=%v shared acted=%v", sc.Name, i, offline.Acted, acted)
			}
			if offline.Acted && (act.Node != offline.ActNode || act.Time != offline.ActTime) {
				t.Fatalf("%s task %d: shared %s@%d vs offline %s@%d",
					sc.Name, i, act.Node, act.Time, offline.ActNode, offline.ActTime)
			}
		}
		shared := sharedAgents[0].Shared
		for i, a := range sharedAgents {
			if a.Shared == nil || a.Shared != shared {
				t.Fatalf("%s: agent %d not on the run's one shared engine", sc.Name, i)
			}
		}
		if shared.NumVertices() < sc.Net.N() {
			t.Fatalf("%s: shared engine never grew (%d vertices)", sc.Name, shared.NumVertices())
		}
	}
}

// TestProtocol2EarlyMultiAgentMatchesOffline runs the all-Early family —
// every agent's Protocol 2 loop asks KW(sigma, aNode) with a moving
// source and a fixed target, the shape the per-target reverse cache
// serves — through the live environment on both engine selections, up to
// coord-early-m16. Shared and private runs must record identical runs, act
// identically, agree with the offline optimum for every task, and the
// shared engine's handles must actually have answered from the reverse
// cache (otherwise this differential would silently pin the forward
// path twice). The thresholds are x = 0: with x >= 1 an agent settles
// once a's node enters its past and stops querying (coord.Task.Settled),
// which on these runs leaves the reverse cache idle.
func TestProtocol2EarlyMultiAgentMatchesOffline(t *testing.T) {
	for _, m := range []int{2, 4, 16} {
		sc := scenario.MultiAgentEarly(m)
		for i := range sc.Tasks {
			sc.Tasks[i].X = 0
		}
		seed := int64(29 + m)
		sharedRes, sharedAgents := runMultiAgent(t, sc, bounds.NewNetworkEngine(sc.Net), seed)
		onlineRes, _ := runMultiAgent(t, sc, nil, seed)

		requireIdenticalRuns(t, fmt.Sprintf("%s engines", sc.Name), sharedRes.Run, onlineRes.Run)
		sharedActs, onlineActs := actionsOf(sharedRes), actionsOf(onlineRes)
		if len(sharedActs) != len(onlineActs) {
			t.Fatalf("%s: %d shared actions vs %d online", sc.Name, len(sharedActs), len(onlineActs))
		}
		for label, act := range onlineActs {
			got, ok := sharedActs[label]
			if !ok || got != act {
				t.Fatalf("%s: action %q: shared %+v online %+v", sc.Name, label, got, act)
			}
		}

		var rev bounds.EngineStats
		for i := range sc.Tasks {
			rev.Add(sharedAgents[i].Stats())
			// The offline RunOptimal rebuilds an extended graph per state and
			// dominates the test's budget at m=16; the engine-vs-engine run
			// and act identity above already covers every agent, so sampling
			// the offline anchor at the family's largest member suffices.
			if m > 4 && i != 0 && i != len(sc.Tasks)/2 && i != len(sc.Tasks)-1 {
				continue
			}
			offline, err := sc.Tasks[i].RunOptimal(sharedRes.Run)
			if err != nil {
				t.Fatalf("%s task %d offline: %v", sc.Name, i, err)
			}
			label := TaskLabel(i)
			act, acted := sharedActs[label]
			if offline.Acted != acted {
				t.Fatalf("%s task %d: offline acted=%v shared acted=%v", sc.Name, i, offline.Acted, acted)
			}
			if offline.Acted && (act.Node != offline.ActNode || act.Time != offline.ActTime) {
				t.Fatalf("%s task %d: shared %s@%d vs offline %s@%d",
					sc.Name, i, act.Node, act.Time, offline.ActNode, offline.ActTime)
			}
		}
		if rev.RevHits == 0 {
			t.Fatalf("%s: no Early agent answered from the reverse cache: %+v", sc.Name, rev)
		}
	}
}

// TestNetworkEngineConcurrentLiveRuns drives several live executions of one
// network CONCURRENTLY off a single bounds.NetworkEngine (the configuration
// a parallel sweep produces): each run clones the engine's aux prototype
// and leases scratches from the shared pool, so this test — running under
// -race in CI — pins the engine tier's concurrency contract, and every
// agent must still agree with the offline analysis of its own recording.
func TestNetworkEngineConcurrentLiveRuns(t *testing.T) {
	sc := scenario.MultiAgent(4)
	eng := bounds.NewNetworkEngine(sc.Net)
	const runs = 4
	type outcome struct {
		res *Result
		err error
	}
	outcomes := make([]outcome, runs)
	done := make(chan int, runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			_, agents := NewTaskAgents(sc.Tasks)
			res, err := Replay(Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(int64(40 + i)),
				Externals: sc.Externals, Agents: agents, Engine: eng,
			})
			outcomes[i] = outcome{res, err}
			done <- i
		}(i)
	}
	for i := 0; i < runs; i++ {
		<-done
	}
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("run %d: %v", i, o.err)
		}
		acts := actionsOf(o.res)
		for j := range sc.Tasks {
			offline, err := sc.Tasks[j].RunOptimal(o.res.Run)
			if err != nil {
				t.Fatalf("run %d task %d: %v", i, j, err)
			}
			act, acted := acts[TaskLabel(j)]
			if acted != offline.Acted || (acted && (act.Node != offline.ActNode || act.Time != offline.ActTime)) {
				t.Fatalf("run %d task %d: live acted=%v@%d, offline acted=%v@%d",
					i, j, acted, act.Time, offline.Acted, offline.ActTime)
			}
		}
	}
}

// TestProtocol2SharedGuards: a run must not subscribe to a Config.Engine
// built for another network, and an agent driven with a different view than
// its handle was built on reports errDifferentView rather than answering
// stale.
func TestProtocol2SharedGuards(t *testing.T) {
	sc := scenario.MultiAgent(2)
	other := model.MustComplete(3, 1, 2)
	_, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.Eager{},
		Externals: sc.Externals, Engine: bounds.NewNetworkEngine(other),
	})
	if !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("foreign network engine: got %v, want ErrBadConfig", err)
	}

	shared := bounds.NewNetworkEngine(sc.Net).NewRun()
	agent := &Protocol2{Task: sc.Tasks[0], Shared: shared}
	// goView records one run in which B's first batch is the go label and
	// returns B's view there.
	goView := func() *run.View {
		rec, err := run.NewRecorder(sc.Net, sc.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rec.Append(sc.Tasks[0].B, 1, nil, []string{"go"})
		if err != nil {
			t.Fatal(err)
		}
		v, err := run.ViewOf(rec.Finish(), b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1 := goView()
	// Force the go label into B's own view so the agent subscribes.
	agent.Task.C = sc.Tasks[0].B
	agent.OnState(v1, nil)
	if agent.Err() != nil {
		t.Fatalf("first view: %v", agent.Err())
	}
	agent.OnState(goView(), nil)
	if agent.Err() == nil {
		t.Fatal("different view accepted by shared handle")
	}
}
