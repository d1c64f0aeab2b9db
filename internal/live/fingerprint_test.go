package live

import (
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// TestLiveFingerprintMatchesSim pins the identity the prefix cache keys on:
// a live execution and sim.Simulate of the same configuration record runs
// with the same (nonzero) content fingerprint, under every policy family.
func TestLiveFingerprintMatchesSim(t *testing.T) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	factories := []func() sim.Policy{
		func() sim.Policy { return sim.Eager{} },
		func() sim.Policy { return sim.Lazy{} },
		func() sim.Policy { return sim.NewRandom(8) },
	}
	for _, mk := range factories {
		offline, err := sc.Simulate(mk())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(Config{
			Net: sc.Net, Horizon: sc.Horizon, Policy: mk(), Externals: sc.Externals,
		})
		if err != nil {
			t.Fatalf("%s: %v", mk().Name(), err)
		}
		if got, want := res.Run.Fingerprint(), offline.Fingerprint(); got == 0 || got != want {
			t.Fatalf("%s: live fingerprint %#x, sim %#x", mk().Name(), got, want)
		}
	}
}

// TestLivePrefixRoundTrip drives two identical executions through one
// network engine with a pre-simulated Config.Fingerprint: the first run
// misses and freezes the standing prefix, the second hits it, and both
// record the same run with the same agent actions. A mispredicted
// fingerprint must fail the run instead of poisoning the cache.
func TestLivePrefixRoundTrip(t *testing.T) {
	sc := scenario.MultiAgent(2)
	offline, err := sc.Simulate(sim.Eager{})
	if err != nil {
		t.Fatal(err)
	}
	fp := offline.Fingerprint()
	eng := bounds.NewNetworkEngine(sc.Net)

	exec := func() *Result {
		t.Helper()
		agents, agentMap := NewTaskAgents(sc.TaskList())
		res, err := Replay(Config{
			Net: sc.Net, Horizon: sc.Horizon, Policy: sim.Eager{},
			Externals: sc.Externals, Agents: agentMap,
			Engine: eng, Fingerprint: fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range agents {
			if aerr := agents[i].Err(); aerr != nil {
				t.Fatalf("agent %s: %v", TaskLabel(i), aerr)
			}
		}
		return res
	}

	first := exec()
	if first.PrefixHit {
		t.Fatal("first execution reported a prefix hit")
	}
	second := exec()
	if !second.PrefixHit {
		t.Fatal("second identical execution missed the frozen prefix")
	}
	if first.Run.Fingerprint() != fp || second.Run.Fingerprint() != fp {
		t.Fatal("recorded fingerprints diverge from the prediction")
	}
	if len(first.Actions) != len(second.Actions) {
		t.Fatalf("action counts diverge: %d vs %d", len(first.Actions), len(second.Actions))
	}
	for i := range first.Actions {
		if first.Actions[i] != second.Actions[i] {
			t.Fatalf("action %d diverges: %+v vs %+v", i, first.Actions[i], second.Actions[i])
		}
	}

	_, agentMap := NewTaskAgents(sc.TaskList())
	if _, err := Replay(Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: sim.Lazy{},
		Externals: sc.Externals, Agents: agentMap,
		Engine: eng, Fingerprint: fp,
	}); err == nil {
		t.Fatal("mispredicted fingerprint did not fail the run")
	}
	// The mispredicted run stamped the cached prefix (a hit) before the
	// recording check rejected it, so the tally reads 2 hits / 1 miss.
	st := eng.Stats()
	if st.PrefixHits != 2 || st.PrefixMisses != 1 {
		t.Fatalf("engine stats %+v, want 2 hits / 1 miss", st)
	}
}
