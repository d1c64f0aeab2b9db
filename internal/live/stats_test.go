package live

import (
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// TestCounterConservation pins the one counter path: every knowledge query
// a handle answers reaches the engine totals exactly once, as it returns —
// not at Release, which agents that never act never call. One live
// execution of coord-early-m4 under the random policy on a fresh engine,
// with one agent on a KnowsAt threshold grid: for every handle-level
// counter the agents' Stats sum to the engine total, and the engine's
// replay batches are the execution's.
func TestCounterConservation(t *testing.T) {
	sc := scenario.MultiAgentEarly(4)
	eng := bounds.NewNetworkEngine(sc.Net)
	agents, agentMap := NewTaskAgents(sc.Tasks)
	agents[0].XGrid = []int{sc.Tasks[0].X, sc.Tasks[0].X + 1}
	res, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(3),
		Externals: sc.Externals, Agents: agentMap, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	acted := make(map[string]bool)
	for _, a := range res.Actions {
		acted[a.Label] = true
	}
	var sum bounds.EngineStats
	silent := 0
	for i, a := range agents {
		if err := a.Err(); err != nil {
			t.Fatal(err)
		}
		st := a.Stats()
		if !acted[TaskLabel(i)] && st != (bounds.EngineStats{}) {
			silent++
		}
		sum.Add(st)
	}
	if silent == 0 {
		t.Fatal("every agent acted: the test would not cover agents that never release")
	}
	total := eng.Stats()
	if sum.BatchQueries == 0 || sum.RevHits == 0 {
		t.Fatalf("execution exercised neither the grid nor the reverse cache: %+v", sum)
	}
	if total.ReplayBatches != int64(res.ReplayBatches) {
		t.Errorf("engine counts %d replay batches, execution drove %d", total.ReplayBatches, res.ReplayBatches)
	}
	// The engine, its prefix cache and the execution count the rest; every
	// other counter is a handle's and must be conserved.
	total.Runs, total.PrefixHits, total.PrefixMisses, total.PrefixEvictions = 0, 0, 0, 0
	total.CloneBytes, total.ReplayBatches, total.XFanout, total.ScratchLeased = 0, 0, 0, 0
	for _, f := range bounds.StatFields {
		if f.Of(sum) != f.Of(total) {
			t.Errorf("%s: agents sum to %d, engine total %d", f.Name, f.Of(sum), f.Of(total))
		}
	}
}

// TestReplayReleasesScratches pins the scratch gauge: once Replay returns,
// every handle of the run has given its scratch back to the engine pool,
// including an agent whose threshold is never met (it never makes a last
// query) and a batched agent whose grid is never fully decided.
func TestReplayReleasesScratches(t *testing.T) {
	sc := scenario.MultiAgentEarly(4)
	eng := bounds.NewNetworkEngine(sc.Net)
	tasks := sc.TaskList()
	tasks[0].X = 1 << 20
	agents, agentMap := NewTaskAgents(tasks)
	agents[1].XGrid = []int{tasks[1].X, 1 << 20}
	res, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(3),
		Externals: sc.Externals, Agents: agentMap, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Actions {
		if a.Label == TaskLabel(0) {
			t.Fatalf("agent %s met an unreachable threshold", a.Label)
		}
	}
	for i := 0; i < 2; i++ {
		if agents[i].Stats() == (bounds.EngineStats{}) {
			t.Fatalf("agent %s never queried: the test would not lease its scratch", TaskLabel(i))
		}
	}
	if d := agents[1].XDecisions(); d == nil || d[1].Decided {
		t.Fatalf("batched agent decided its unreachable threshold: %+v", d)
	}
	if n := eng.Stats().ScratchLeased; n != 0 {
		t.Fatalf("%d scratches still leased after the run", n)
	}
}
