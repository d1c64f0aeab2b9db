package coord_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestRunOptimalMatchesRebuild holds RunOptimal's single handle walk to the
// rebuild-per-state oracle on every registry scenario up to coord-m8 and
// coord-early-m8, every default policy and seeds 1-3: the outcomes agree
// field by field, and the witness is a sigma-visible zigzag in the run
// whose weight is the known bound. A Decider walked with the threshold
// grid X-2..X+2 decides each x where the oracle with Task.X = x acts.
// (m16 stays out: the oracle costs about 2 s per cell there.)
func TestRunOptimalMatchesRebuild(t *testing.T) {
	for _, sc := range scenario.All(scenario.RegistrySized(0, 8)) {
		for _, pol := range sweep.DefaultPolicies() {
			for seed := int64(1); seed <= 3; seed++ {
				r, err := sc.Simulate(pol.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				// coord-m alternates Late and Early tasks, so the first
				// two put both kinds against the oracle; all m tasks would
				// cost about three times as long.
				tasks := sc.TaskList()
				if len(tasks) > 2 {
					tasks = tasks[:2]
				}
				for i, task := range tasks {
					cell := fmt.Sprintf("%s/%s/%d task %d", sc.Name, pol.Name, seed, i)
					got, err := task.RunOptimal(r)
					if err != nil {
						t.Fatalf("%s: RunOptimal: %v", cell, err)
					}
					want, err := coord.RebuildOptimal(task, r)
					if err != nil {
						t.Fatalf("%s: rebuild: %v", cell, err)
					}
					if got.Acted != want.Acted || got.ActNode != want.ActNode || got.ActTime != want.ActTime ||
						got.KnownBound != want.KnownBound || got.NodesExamined != want.NodesExamined {
						t.Fatalf("%s: RunOptimal %+v, rebuild %+v", cell, *got, *want)
					}
					checkDecisionGrid(t, cell, task, r)
					if !got.Acted {
						continue
					}
					if err := got.Witness.VerifyVisible(r); err != nil {
						t.Fatalf("%s: witness: %v", cell, err)
					}
					if w, err := got.Witness.Weight(r.Net()); err != nil || w != got.KnownBound {
						t.Fatalf("%s: witness weight %d (%v), known bound %d", cell, w, err, got.KnownBound)
					}
					w, err := task.Wire(r)
					if err != nil {
						t.Fatal(err)
					}
					theta1, theta2 := w.ANode, run.At(got.ActNode)
					if task.Kind == coord.Early {
						theta1, theta2 = theta2, theta1
					}
					ext, err := bounds.NewExtended(r, got.ActNode)
					if err != nil {
						t.Fatal(err)
					}
					_, steps, _, err := ext.KnowledgeWeight(theta1, theta2)
					if err != nil {
						t.Fatal(err)
					}
					if pw := bounds.PathWeight(steps); pw != got.KnownBound {
						t.Fatalf("%s: path weight %d, known bound %d", cell, pw, got.KnownBound)
					}
				}
			}
		}
	}
}

// checkDecisionGrid walks a Decider with the thresholds X-2..X+2 over B's
// timeline and holds each threshold's decision (node, or none) to the
// rebuild oracle run with Task.X = x.
func checkDecisionGrid(t *testing.T, cell string, task coord.Task, r *run.Run) {
	t.Helper()
	xs := []int{task.X - 2, task.X - 1, task.X, task.X + 1, task.X + 2}
	view, err := run.ViewOf(r, run.BasicNode{Proc: task.B})
	if err != nil {
		t.Fatal(err)
	}
	d := coord.Decider{Task: task, Xs: xs}
	defer d.Release()
	for k := 1; k <= r.LastIndex(task.B); k++ {
		if _, err := view.Advance(r); err != nil {
			t.Fatal(err)
		}
		verdict, err := d.Step(view)
		if err != nil {
			t.Fatalf("%s: decider: %v", cell, err)
		}
		if verdict != coord.Open {
			break
		}
	}
	decisions := d.XDecisions()
	for i, x := range xs {
		xt := task
		xt.X = x
		want, err := coord.RebuildOptimal(xt, r)
		if err != nil {
			t.Fatalf("%s x=%d: rebuild: %v", cell, x, err)
		}
		var got coord.XDecision
		if decisions != nil {
			got = decisions[i]
		}
		if got.Decided != want.Acted || got.Node != want.ActNode {
			t.Fatalf("%s x=%d: decider %+v, rebuild acted=%v at %s", cell, x, got, want.Acted, want.ActNode)
		}
	}
}

// TestGoNodeIsEarliestGoInput runs a task whose C receives go twice, at 1
// and 6. Protocol 2 recognises C's earliest go node, so with GoTime 6 the
// task's go node does not exist in the run: Wire, RunOptimal and AuditAct
// fail with ErrNoGo. With GoTime 1, live.Replay's Protocol2 and RunOptimal
// act at the same node for both kinds, x in [-6, 8] and the eager and
// lazy policies.
func TestGoNodeIsEarliestGoInput(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 1, 3).Chan(1, 3, 8, 12).Chan(2, 3, 1, 2).
		Chan(3, 1, 1, 2).Chan(2, 1, 1, 2).Chan(3, 2, 1, 2).MustBuild()
	exts := []run.ExternalEvent{{Proc: 1, Time: 1, Label: "go"}, {Proc: 1, Time: 6, Label: "go"}}
	acted, cases := 0, 0
	for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}} {
		for _, kind := range []coord.Kind{coord.Late, coord.Early} {
			for x := -6; x <= 8; x++ {
				task := coord.Task{Kind: kind, X: x, A: 2, B: 3, C: 1, GoTime: 1}
				_, agents := live.NewTaskAgents([]coord.Task{task})
				res, err := live.Replay(live.Config{Net: net, Horizon: 40, Policy: pol, Externals: exts, Agents: agents})
				if err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("%s %v x=%d", pol.Name(), kind, x)
				late := task
				late.GoTime = 6
				if _, err := late.Wire(res.Run); !errors.Is(err, coord.ErrNoGo) {
					t.Fatalf("%s, GoTime 6: Wire returned %v, want ErrNoGo", cell, err)
				}
				if _, err := late.RunOptimal(res.Run); !errors.Is(err, coord.ErrNoGo) {
					t.Fatalf("%s, GoTime 6: RunOptimal returned %v, want ErrNoGo", cell, err)
				}
				if err := late.AuditAct(res.Run, 10); !errors.Is(err, coord.ErrNoGo) {
					t.Fatalf("%s, GoTime 6: AuditAct returned %v, want ErrNoGo", cell, err)
				}
				offline, err := task.RunOptimal(res.Run)
				if err != nil {
					t.Fatalf("%s: RunOptimal: %v", cell, err)
				}
				var node run.BasicNode
				for _, act := range res.Actions {
					node = act.Node
				}
				if len(res.Actions) > 1 || (len(res.Actions) == 1) != offline.Acted || node != offline.ActNode {
					t.Fatalf("%s: live acts %+v, offline acted=%v at %s", cell, res.Actions, offline.Acted, offline.ActNode)
				}
				if offline.Acted {
					acted++
				}
				cases++
			}
		}
	}
	if acted == 0 || acted == cases {
		t.Fatalf("%d of %d cases acted: the test tells acting from withholding nowhere", acted, cases)
	}
}

// BenchmarkRunOptimal prices the offline optimum on one coord-m16 (late)
// and one coord-early-m16 (early) run under the random policy, seed 1, and
// reports the B states each call scans.
func BenchmarkRunOptimal(b *testing.B) {
	for _, c := range []struct{ name, scenario string }{
		{"late/m16", "coord-m16"},
		{"early/m16", "coord-early-m16"},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := scenario.RegistrySized(0, 16)[c.scenario]
			r, err := sc.Simulate(sim.NewRandom(1))
			if err != nil {
				b.Fatal(err)
			}
			var states int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := sc.Task.RunOptimal(r)
				if err != nil {
					b.Fatal(err)
				}
				states = out.NodesExamined
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}

// TestSettledIsSound checks the settle rule by brute force: for every Early
// task of the registry, every default policy and seeds 1-3, B's states are
// walked from the first one where Task.Settled holds, and at each of them a
// fresh GE(r, sigma) gives a knowledge weight for sigma --> aNode below X
// (indeed at most 0, since aNode happens before sigma). The rule is also
// monotone along B's timeline, and RunOptimal never acts once it holds.
func TestSettledIsSound(t *testing.T) {
	settledTasks := 0
	for _, sc := range scenario.All(scenario.Registry(0)) {
		for _, pol := range sweep.DefaultPolicies() {
			for seed := int64(1); seed <= 3; seed++ {
				r, err := sc.Simulate(pol.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				for i, task := range sc.TaskList() {
					if task.Kind != coord.Early {
						continue
					}
					cell := fmt.Sprintf("%s/%s/%d task %d", sc.Name, pol.Name, seed, i)
					w, err := task.Wire(r)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					view, err := run.ViewOf(r, run.BasicNode{Proc: task.B})
					if err != nil {
						t.Fatal(err)
					}
					settled := false
					for k := 1; k <= r.LastIndex(task.B); k++ {
						sigma, err := view.Advance(r)
						if err != nil {
							t.Fatal(err)
						}
						holds := task.Settled(view, w.ANode)
						if settled && !holds {
							t.Fatalf("%s: settled before %s but not at it", cell, sigma)
						}
						if !holds {
							continue
						}
						settled = true
						ext, err := bounds.NewExtended(r, sigma)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						kw, _, known, err := ext.KnowledgeWeight(run.At(sigma), w.ANode)
						if err != nil {
							t.Fatalf("%s at %s: %v", cell, sigma, err)
						}
						if known && (kw >= task.X || kw > 0) {
							t.Fatalf("%s: settled at or before %s, yet kw = %d (x = %d)", cell, sigma, kw, task.X)
						}
					}
					if !settled {
						continue
					}
					settledTasks++
					if out, err := task.RunOptimal(r); err != nil || out.Acted {
						t.Fatalf("%s: settled task acted=%v (err %v)", cell, out != nil && out.Acted, err)
					}
				}
			}
		}
	}
	t.Logf("%d settled task cells", settledTasks)
	if settledTasks == 0 {
		t.Fatal("no registry Early task settled: the test checked nothing")
	}
}
