package live

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// runScenarioWith executes a scenario end to end through the given execution
// (Replay or the reference environment) with one Protocol2 agent per task.
func runScenarioWith(t *testing.T, label string, exec func(Config) (*Result, error), sc *scenario.Scenario, policy sim.Policy) *Result {
	t.Helper()
	agents, agentMap := NewTaskAgents(sc.TaskList())
	res, err := exec(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: policy,
		Externals: sc.Externals, Agents: agentMap,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, a := range agents {
		if err := a.Err(); err != nil {
			t.Fatalf("%s: agent %d: %v", label, i, err)
		}
	}
	return res
}

// requireIdenticalActions asserts two executions acted at the same nodes,
// times and labels, in the same order.
func requireIdenticalActions(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Actions) != len(want.Actions) {
		t.Fatalf("%s: actions %d vs %d", label, len(got.Actions), len(want.Actions))
	}
	for i := range got.Actions {
		if got.Actions[i] != want.Actions[i] {
			t.Fatalf("%s: action %d: %+v vs %+v", label, i, got.Actions[i], want.Actions[i])
		}
	}
}

// TestReplayMatchesReferenceOnFullRegistry is Replay's correctness
// contract: on EVERY registry scenario at the full multi-agent ceiling
// (coord-m16 and coord-early-m16 included), it must record the same run as
// the reference environment — same deliveries, externals, pending messages,
// node times and content fingerprint — and make every Protocol2 agent act
// at exactly the same nodes, under the eager extreme, a seeded uniform and
// a seeded heavy-tailed policy.
func TestReplayMatchesReferenceOnFullRegistry(t *testing.T) {
	policies := []struct {
		name string
		mk   func(seed int64) sim.Policy
	}{
		{"eager", func(int64) sim.Policy { return sim.Eager{} }},
		{"random", func(seed int64) sim.Policy { return sim.NewRandom(seed) }},
		{"heavy", func(seed int64) sim.Policy { return sim.NewHeavyTail(seed) }},
	}
	for _, sc := range scenario.All(scenario.RegistrySized(0, 16)) {
		for _, pol := range policies {
			seed := int64(17)
			label := fmt.Sprintf("%s/%s", sc.Name, pol.name)
			want := runScenarioWith(t, label+"/reference", refExecute, sc, pol.mk(seed))
			got := runScenarioWith(t, label+"/replay", Replay, sc, pol.mk(seed))
			requireIdenticalRuns(t, label, got.Run, want.Run)
			requireIdenticalActions(t, label, got, want)
			if got.Run.Fingerprint() != want.Run.Fingerprint() {
				t.Fatalf("%s: fingerprint %#x vs %#x", label, got.Run.Fingerprint(), want.Run.Fingerprint())
			}
			if want := got.Run.NumNodes() - sc.Net.N(); got.ReplayBatches != want {
				t.Fatalf("%s: replay drove %d batches for %d non-initial nodes", label, got.ReplayBatches, want)
			}
		}
	}
}

// TestReplayLongHorizonHeavyFamily runs the long-horizon heavy-tail
// coordination family at m=4 and m=16 end to end and cross-checks the m=4
// member against the reference environment. (The reference check on the
// small member keeps the family honest without paying the big one twice.)
func TestReplayLongHorizonHeavyFamily(t *testing.T) {
	fam := scenario.ReplayFamily()
	if len(fam) == 0 {
		t.Fatal("empty replay family")
	}
	for _, sc := range fam {
		policy := func() sim.Policy { return sim.NewHeavyTail(int64(3)) }
		got := runScenarioWith(t, sc.Name+"/replay", Replay, sc, policy())
		if len(got.Actions) == 0 {
			t.Errorf("%s: no agent acted within the stretched horizon", sc.Name)
		}
		if sc.Net.N() <= 6 {
			want := runScenarioWith(t, sc.Name+"/reference", refExecute, sc, policy())
			requireIdenticalRuns(t, sc.Name, got.Run, want.Run)
			requireIdenticalActions(t, sc.Name, got, want)
		}
	}
}

// TestReplayPredictsViewNodes locks the stepper's recorded states to the
// agents' views: a replay of a dense multi-agent scenario must never trip
// the per-batch check that Advance moves a view to the recorded node, and
// the batch count must equal the recording's non-initial node count — one
// driven batch per created state.
func TestReplayPredictsViewNodes(t *testing.T) {
	sc := scenario.MultiAgent(8)
	got := runScenarioWith(t, "replay", Replay, sc, sim.NewRandom(5))
	nodes := 0
	for _, p := range sc.Net.Procs() {
		nodes += got.Run.LastIndex(p)
	}
	if got.ReplayBatches != nodes {
		t.Fatalf("replay drove %d batches but the recording holds %d non-initial nodes",
			got.ReplayBatches, nodes)
	}
}

// TestReplayAllocationGuard pins the perf contract of Replay at every
// multi-agent size: a full live cell must allocate strictly less than the
// map-keyed reference environment on the identical configuration.
func TestReplayAllocationGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short")
	}
	for _, m := range scenario.MultiAgentSizes {
		sc := scenario.MultiAgent(m)
		cell := func(exec func(Config) (*Result, error), seed int64) {
			agents, agentMap := NewTaskAgents(sc.TaskList())
			if _, err := exec(Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(seed),
				Externals: sc.Externals, Agents: agentMap,
			}); err != nil {
				t.Fatal(err)
			}
			for i := range agents {
				if err := agents[i].Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var seed int64
		replayAllocs := testing.AllocsPerRun(3, func() { seed++; cell(Replay, seed) })
		seed = 0
		refAllocs := testing.AllocsPerRun(3, func() { seed++; cell(refExecute, seed) })
		if replayAllocs >= refAllocs {
			t.Errorf("m=%d: replay cell allocates %.0f/run, reference cell %.0f/run — want strictly fewer",
				m, replayAllocs, refAllocs)
		}
	}
}
