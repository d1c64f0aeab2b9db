package live_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// faultyPolicies are the policy families the faulted differential tests
// cross with the plan families: the deterministic extreme and a seeded
// random environment.
func faultyPolicies() []sweep.PolicySpec {
	return []sweep.PolicySpec{
		{Name: "eager", New: func(int64) sim.Policy { return sim.Eager{} }},
		{Name: "random", New: func(seed int64) sim.Policy { return sim.NewRandom(seed) }},
	}
}

// faultedConfig assembles the live configuration of one faulted cell.
func faultedConfig(t *testing.T, sc *scenario.Scenario, policy sim.Policy, seed int64,
	agents map[model.ProcID]live.Agent) (live.Config, *faults.Plan) {
	t.Helper()
	plan, err := faults.NewPlan(sc.FaultFamily, sc.Net, sc.Horizon, seed)
	if err != nil {
		t.Fatalf("%s: NewPlan: %v", sc.Name, err)
	}
	return live.Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: policy,
		Externals: sc.Externals, Agents: agents, Faults: plan,
	}, plan
}

// TestFaultedModesAgree pins the byte-for-byte guarantee under faults: for
// every coord-faulty scenario (one per plan family), policy and seed, the
// replay drive, the reference environment and the offline simulator inject
// the identical faults and agree on the recording's fingerprint, the
// violation report and the crashed set; replay and reference also agree on
// every agent action, the degraded set and every agent's Degraded flag.
func TestFaultedModesAgree(t *testing.T) {
	seeds := []int64{1, 2, 3}
	for _, sc := range scenario.FaultyFamily() {
		for _, spec := range faultyPolicies() {
			for _, seed := range seeds {
				tag := sc.Name + "/" + spec.Name
				tasks := sc.TaskList()

				fAgents, fMap := live.NewTaskAgents(tasks)
				fCfg, plan := faultedConfig(t, sc, spec.New(seed), seed, fMap)
				fOut, err := live.RefExecute(fCfg)
				if err != nil {
					t.Fatalf("%s seed %d: reference: %v", tag, seed, err)
				}

				rAgents, rMap := live.NewTaskAgents(tasks)
				rCfg, _ := faultedConfig(t, sc, spec.New(seed), seed, rMap)
				rOut, err := live.Replay(rCfg)
				if err != nil {
					t.Fatalf("%s seed %d: replay: %v", tag, seed, err)
				}

				sr, sRep, err := sim.SimulateFaulty(sim.Config{
					Net: sc.Net, Horizon: sc.Horizon, Policy: spec.New(seed),
					Externals: sc.Externals, Faults: plan,
				})
				if err != nil {
					t.Fatalf("%s seed %d: sim: %v", tag, seed, err)
				}

				if f, r := fOut.Run.Fingerprint(), rOut.Run.Fingerprint(); f != r {
					t.Fatalf("%s seed %d: reference fp %#x != replay fp %#x", tag, seed, f, r)
				}
				if f, s := fOut.Run.Fingerprint(), sr.Fingerprint(); f != s {
					t.Fatalf("%s seed %d: reference fp %#x != sim fp %#x", tag, seed, f, s)
				}
				if !reflect.DeepEqual(fOut.Actions, rOut.Actions) {
					t.Fatalf("%s seed %d: actions differ:\n reference %v\n replay    %v",
						tag, seed, fOut.Actions, rOut.Actions)
				}
				if !reflect.DeepEqual(fOut.Violations, rOut.Violations) ||
					!reflect.DeepEqual(fOut.Violations, sRep.Violations) {
					t.Fatalf("%s seed %d: violation reports differ across modes", tag, seed)
				}
				if !reflect.DeepEqual(fOut.Crashed, rOut.Crashed) ||
					!reflect.DeepEqual(fOut.Crashed, sRep.Crashed) {
					t.Fatalf("%s seed %d: crashed sets differ across modes", tag, seed)
				}
				if !reflect.DeepEqual(fOut.Degraded, rOut.Degraded) {
					t.Fatalf("%s seed %d: degraded sets differ: reference %v, replay %v",
						tag, seed, fOut.Degraded, rOut.Degraded)
				}
				for i := range fAgents {
					if fAgents[i].Err() != nil || rAgents[i].Err() != nil {
						t.Fatalf("%s seed %d: agent %s internal error (reference %v, replay %v) — violations must degrade, not error",
							tag, seed, live.TaskLabel(i), fAgents[i].Err(), rAgents[i].Err())
					}
					if fd, rd := fAgents[i].Degraded(), rAgents[i].Degraded(); fd != rd {
						t.Fatalf("%s seed %d: agent %s Degraded: reference %v, replay %v",
							tag, seed, live.TaskLabel(i), fd, rd)
					}
					if rAgents[i].Degraded() {
						if reason := rAgents[i].DegradeReason(); !errors.Is(reason, faults.ErrBoundViolation) {
							t.Fatalf("%s seed %d: degrade reason %v does not wrap ErrBoundViolation",
								tag, seed, reason)
						}
					}
				}
			}
		}
	}
}

// TestFaultedNoEarlyActs is the chaos safety invariant: across every
// coord-faulty scenario, plan family, policy and seed, every action any
// agent performed satisfies its task specification on the faulted run that
// actually happened — the environment lied, yet no agent acted early. The
// test also requires the plans to have real teeth: across the sweep, faults
// must fire (violations recorded) and degrade agents.
func TestFaultedNoEarlyActs(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	totalViolations, totalDegraded, totalActs := 0, 0, 0
	for _, sc := range scenario.FaultyFamily() {
		for _, spec := range faultyPolicies() {
			for _, seed := range seeds {
				tasks := sc.TaskList()
				_, agentMap := live.NewTaskAgents(tasks)
				cfg, _ := faultedConfig(t, sc, spec.New(seed), seed, agentMap)
				out, err := live.Replay(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", sc.Name, spec.Name, seed, err)
				}
				totalViolations += len(out.Violations)
				totalDegraded += len(out.Degraded)
				totalActs += len(out.Actions)
				byLabel := make(map[string]int, len(tasks))
				for i := range tasks {
					byLabel[live.TaskLabel(i)] = i
				}
				for _, act := range out.Actions {
					i, ok := byLabel[act.Label]
					if !ok {
						t.Fatalf("%s/%s seed %d: unknown action label %q", sc.Name, spec.Name, seed, act.Label)
					}
					if err := tasks[i].AuditAct(out.Run, act.Time); err != nil {
						t.Fatalf("%s/%s seed %d: EARLY ACT by %s: %v", sc.Name, spec.Name, seed, act.Label, err)
					}
				}
			}
		}
	}
	if totalViolations == 0 {
		t.Fatal("no plan injected a single violation: the chaos axis has no teeth")
	}
	if totalDegraded == 0 {
		t.Fatal("no agent ever degraded: the degradation frontier never reached an agent")
	}
	if totalActs == 0 {
		t.Fatal("no agent ever acted: the safety audit is vacuous")
	}
}

// TestFaultedEnginesAgree pins engine-independence under faults: on every
// faulted cell, agents answering through a per-run shared engine act and
// degrade exactly like agents rebuilding a fresh bounds graph per state.
// Healthy partitions of a faulted run must answer byte-identically to fresh
// builds — a violated bound elsewhere cannot corrupt standing state.
func TestFaultedEnginesAgree(t *testing.T) {
	seeds := []int64{1, 2}
	for _, sc := range scenario.FaultyFamily() {
		eng := bounds.NewNetworkEngine(sc.Net)
		for _, spec := range faultyPolicies() {
			for _, seed := range seeds {
				tag := sc.Name + "/" + spec.Name
				tasks := sc.TaskList()

				sAgents, sMap := live.NewTaskAgents(tasks)
				sCfg, _ := faultedConfig(t, sc, spec.New(seed), seed, sMap)
				sCfg.Engine = eng
				sOut, err := live.Replay(sCfg)
				if err != nil {
					t.Fatalf("%s seed %d: shared: %v", tag, seed, err)
				}

				bAgents, bMap := live.NewTaskAgents(tasks)
				for i := range bAgents {
					bAgents[i].Rebuild = true
				}
				bCfg, _ := faultedConfig(t, sc, spec.New(seed), seed, bMap)
				bOut, err := live.Replay(bCfg)
				if err != nil {
					t.Fatalf("%s seed %d: rebuild: %v", tag, seed, err)
				}

				if !reflect.DeepEqual(sOut.Actions, bOut.Actions) {
					t.Fatalf("%s seed %d: engine-dependent actions:\n shared  %v\n rebuild %v",
						tag, seed, sOut.Actions, bOut.Actions)
				}
				for i := range sAgents {
					if sAgents[i].Err() != nil || bAgents[i].Err() != nil {
						t.Fatalf("%s seed %d: agent %s internal error (shared %v, rebuild %v)",
							tag, seed, live.TaskLabel(i), sAgents[i].Err(), bAgents[i].Err())
					}
					if sd, bd := sAgents[i].Degraded(), bAgents[i].Degraded(); sd != bd {
						t.Fatalf("%s seed %d: agent %s Degraded: shared %v, rebuild %v",
							tag, seed, live.TaskLabel(i), sd, bd)
					}
				}
			}
		}
	}
}

// watchedAgent wraps a Protocol2 agent and records what the driver does to
// it once it is Finished: the state and counters it finished with, and any
// OnState or Degrade call after that.
type watchedAgent struct {
	*live.Protocol2
	finished     bool
	acted        bool
	settled      bool
	view         *run.View
	origin       run.BasicNode
	stats        bounds.EngineStats
	statesAfter  int
	degradeAfter int
}

func (w *watchedAgent) OnState(v *run.View, ext []string) []string {
	if w.finished {
		w.statesAfter++
	}
	acts := w.Protocol2.OnState(v, ext)
	if !w.finished && w.Protocol2.Finished() {
		w.finished, w.acted = true, len(acts) > 0
		w.settled = !w.acted && !w.Degraded() && w.Err() == nil
		w.view, w.origin, w.stats = v, v.Origin(), w.Protocol2.Stats()
	}
	return acts
}

func (w *watchedAgent) Degrade(reason error) {
	if w.finished {
		w.degradeAfter++
	}
	w.Protocol2.Degrade(reason)
}

// TestFinishedAgentsLeaveTheDriver pins what Replay does with a Finished
// agent on the faulted coord-m4 family (Late and Early agents, shared
// engine): from the state where the agent acts or settles on, its view no
// longer advances, OnState is no longer called and its query counters
// freeze, yet Degrade still reaches it on later degraded batches, so every
// agent the environment reports degraded is Degraded.
func TestFinishedAgentsLeaveTheDriver(t *testing.T) {
	var acted, settled, degradedAfter, skipped int
	for _, fam := range faults.Families() {
		sc := scenario.MultiAgentFaulty(4, fam)
		eng := bounds.NewNetworkEngine(sc.Net)
		for seed := int64(1); seed <= 4; seed++ {
			tasks := sc.TaskList()
			agents, _ := live.NewTaskAgents(tasks)
			watched := make([]*watchedAgent, len(agents))
			agentMap := make(map[model.ProcID]live.Agent, len(agents))
			for i, a := range agents {
				watched[i] = &watchedAgent{Protocol2: a}
				agentMap[tasks[i].B] = watched[i]
			}
			cfg, _ := faultedConfig(t, sc, sim.NewRandom(seed), seed, agentMap)
			cfg.Engine = eng
			out, err := live.Replay(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			degraded := make(map[model.ProcID]bool, len(out.Degraded))
			for _, p := range out.Degraded {
				degraded[p] = true
			}
			for i, w := range watched {
				tag := fmt.Sprintf("%s seed %d agent %s", sc.Name, seed, live.TaskLabel(i))
				if degraded[tasks[i].B] && !w.Degraded() {
					t.Fatalf("%s: the environment degraded the agent, yet it is not Degraded", tag)
				}
				if !w.finished {
					continue
				}
				if w.statesAfter != 0 {
					t.Fatalf("%s: OnState called %d times after the agent finished", tag, w.statesAfter)
				}
				if got := w.view.Origin(); got != w.origin {
					t.Fatalf("%s: view moved from %v to %v after the agent finished", tag, w.origin, got)
				}
				if got := w.Stats(); got != w.stats {
					t.Fatalf("%s: counters moved after the agent finished:\n%+v\n%+v", tag, w.stats, got)
				}
				if w.origin.Index < out.Run.LastIndex(tasks[i].B) {
					skipped++
				}
				if w.acted {
					acted++
				}
				if w.settled {
					settled++
				}
				if (w.acted || w.settled) && w.degradeAfter > 0 {
					degradedAfter++
				}
			}
		}
	}
	t.Logf("%d acted, %d settled, %d degraded after finishing, %d with states left", acted, settled, degradedAfter, skipped)
	if acted == 0 || settled == 0 || degradedAfter == 0 || skipped == 0 {
		t.Fatalf("coverage: %d acted, %d settled, %d degraded after finishing, %d with states left; want each > 0",
			acted, settled, degradedAfter, skipped)
	}
}
