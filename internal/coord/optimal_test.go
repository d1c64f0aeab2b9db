package coord_test

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestRunOptimalMatchesRebuild holds RunOptimal's single handle walk to the
// rebuild-per-state oracle on every registry scenario up to coord-m8 and
// coord-early-m8, every default policy and seeds 1-3: the outcomes agree
// field by field, and the witness is a sigma-visible zigzag in the run
// whose weight is the known bound. (m16 stays out: the oracle costs about
// 2 s per cell there.)
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
