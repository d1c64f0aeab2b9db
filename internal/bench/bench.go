// Package bench defines the repository's scaling benchmark bodies once, for
// the root benchmark suite (go test -bench) and the package tests that
// reuse their workloads. The end-to-end perf record is perfbench/.
package bench

import (
	"fmt"
	"sort"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
	"github.com/clockless/zigzag/internal/workload"
)

// Case is one benchmark cell: a name like "ScalingLive/n=16" and a body
// runnable under go test -bench.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// instance generates the standard scaling workload for n processes.
func instance(n int) *workload.Instance {
	cfg := workload.DefaultConfig(int64(n))
	cfg.Procs = n
	cfg.ExtraChannels = 2 * n
	return workload.MustGenerate(cfg)
}

// ScalingLive measures the live engine (no agents — the environment, the
// run recording and FFIP relay cost alone) on the standard scaling
// workload.
func ScalingLive(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingLive/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := live.Replay(live.Config{
					Net: in.Net, Horizon: in.Horizon,
					Policy: sim.NewRandom(int64(i)), Externals: in.Externals,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Run.NumNodes() == 0 {
					b.Fatal("empty run")
				}
			}
		},
	}
}

// protocol2Task wires the standard coordination task for the Protocol2
// scaling benchmarks: C triggers A over the instance's first channel and B
// (a third process) watches for an unattainably large separation — so the
// agent re-queries its growing view at every single state, which is
// exactly the per-state engine cost the benchmark isolates.
func protocol2Task(in *workload.Instance) coord.Task {
	a := in.Net.Arcs()[0]
	task := coord.Task{Kind: coord.Late, X: 1 << 20, C: a.From, A: a.To, GoTime: 1}
	for _, p := range in.Net.Procs() {
		if p != task.A && p != task.C {
			task.B = p
			break
		}
	}
	return task
}

// States returns the non-initial states of the observed processes of a
// recorded run in (time, process) order — the order live.Replay drives
// them in. Harnesses walk each observed process's view over the run with
// run.ViewOf and View.Advance, calling its agent or engine at each of
// these states; the internal/bounds engine-tier tests share this order.
func States(r *run.Run, observed map[model.ProcID]bool) []run.BasicNode {
	var out []run.BasicNode
	for p := range observed {
		for k := 1; k <= r.LastIndex(p); k++ {
			out = append(out, run.BasicNode{Proc: p, Index: k})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := r.MustTime(out[i]), r.MustTime(out[j])
		return ti < tj || ti == tj && out[i].Proc < out[j].Proc
	})
	return out
}

// initialViews returns the initial view over r of every observed process,
// indexed by process id minus one. The observed processes are the
// benchmark's own agents, so every node asked for appears and ViewOf
// cannot fail.
func initialViews(r *run.Run, observed map[model.ProcID]bool) []*run.View {
	views := make([]*run.View, r.Net().N())
	for p := range observed {
		views[p-1], _ = run.ViewOf(r, run.BasicNode{Proc: p})
	}
	return views
}

// finalViews returns the observed processes' views at their last states
// (which appear, as in initialViews).
func finalViews(r *run.Run, observed map[model.ProcID]bool) map[model.ProcID]*run.View {
	out := make(map[model.ProcID]*run.View, len(observed))
	for p := range observed {
		out[p], _ = run.ViewOf(r, run.BasicNode{Proc: p, Index: r.LastIndex(p)})
	}
	return out
}

// protocol2 measures the per-state online decision loop of Protocol 2 for
// B over a recorded scaling run: walk B's view along its timeline and let
// B's agent decide at each of its states, under the selected engine: the
// default private one-handle run (Online) or a fresh build per state
// (Rebuild). Only the engines differ between the variants; the view walk
// is identical. With kind Early
// the query source is B's moving state while the target stays fixed on
// A's node, so the forward (fixed-source) cache misses at every state. At
// this threshold an Early agent queries only until A's node enters B's
// past, where its decision settles (coord.Task.Settled) and it stops; A's
// node is still a speculative chain vertex until then, so the reverse
// (fixed-target) cache never warms — BenchmarkScalingEarlyWarm times that
// cache directly.
func protocol2(n int, name string, rebuild bool, kind coord.Kind) Case {
	return Case{
		Name: fmt.Sprintf("%s/n=%d", name, n),
		Run: func(b *testing.B) {
			in := instance(n)
			task := protocol2Task(in)
			task.Kind = kind
			r, err := sim.Simulate(sim.Config{
				Net: in.Net, Horizon: in.Horizon, Policy: sim.NewRandom(11),
				Externals: sim.GoAt(task.C, task.GoTime, "go"),
			})
			if err != nil {
				b.Fatal(err)
			}
			states := r.LastIndex(task.B)
			if states == 0 {
				b.Fatal("B never moves")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent := &live.Protocol2{Task: task, Rebuild: rebuild}
				view, err := run.ViewOf(r, run.BasicNode{Proc: task.B})
				if err != nil {
					b.Fatal(err)
				}
				for k := 1; k <= states; k++ {
					if _, err := view.Advance(r); err != nil {
						b.Fatal(err)
					}
					agent.OnState(view, nil)
				}
				if err := agent.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(states), "states")
		},
	}
}

// protocol2Multi measures m concurrent Protocol2 agents deciding over ONE
// recorded multi-agent run — the workload the shared per-run engine
// amortizes. Every agent's required separation is raised beyond
// knowability, so each Late agent re-queries its growing view at every one
// of its states and each Early agent until its decision settles
// (coord.Task.Settled); only the engine configuration differs between the
// variants:
// shared=true subscribes every agent to one bounds.Shared engine (one
// standing graph, per-agent frontier handles), shared=false gives each
// agent its default private one-handle run (one standing graph per agent).
func protocol2Multi(m int, name string, shared bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d", name, m),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			tasks := append([]coord.Task(nil), sc.Tasks...)
			observed := make(map[model.ProcID]bool, m)
			for i := range tasks {
				tasks[i].X = 1 << 20 // unknowable: query at every state
				observed[tasks[i].B] = true
			}
			r, err := sim.Simulate(sim.Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(11),
				Externals: sc.Externals,
			})
			if err != nil {
				b.Fatal(err)
			}
			states := States(r, observed)
			if len(states) == 0 {
				b.Fatal("no agent ever moves")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var eng *bounds.Shared
				if shared {
					eng = bounds.NewNetworkEngine(sc.Net).NewRun()
				}
				agents := make(map[model.ProcID]*live.Protocol2, m)
				for j := range tasks {
					agent := &live.Protocol2{Task: tasks[j]}
					if eng != nil {
						agent.UseShared(eng)
					}
					agents[tasks[j].B] = agent
				}
				views := initialViews(r, observed)
				for _, st := range states {
					view := views[st.Proc-1]
					if _, err := view.Advance(r); err != nil {
						b.Fatal(err)
					}
					agents[st.Proc].OnState(view, nil)
				}
				for _, agent := range agents {
					if err := agent.Err(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(states)), "states")
		},
	}
}

// sweepNetwork measures the knowledge-layer cost of a block of live
// multi-agent sweep cells over ONE topology — the workload the
// network-lifetime engine tier (bounds.NetworkEngine) amortizes. Each cell
// stamps out a per-run Shared engine, subscribes one handle per agent to
// that agent's fully-grown view, absorbs the run and answers a knowledge
// query, then releases the handle. With shared=true all cells go through
// one NetworkEngine, as sweep.Grid arranges: the aux psi band and its E”'
// adjacency are cloned rather than rebuilt, presizing hints are shared, and
// released scratches are re-leased by the next cell. With shared=false
// every cell re-derives the network tier — what NewShared cost before the
// hierarchy existed, and the rebuild-per-cell baseline the acceptance
// criterion compares against.
func sweepNetwork(m int, name string, shared bool) Case {
	const cells = 6
	return Case{
		Name: fmt.Sprintf("%s/m=%d", name, m),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			observed := make(map[model.ProcID]bool, len(sc.Tasks))
			for i := range sc.Tasks {
				observed[sc.Tasks[i].B] = true
			}
			r, err := sim.Simulate(sim.Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(11),
				Externals: sc.Externals,
			})
			if err != nil {
				b.Fatal(err)
			}
			views := finalViews(r, observed)
			var eng *bounds.NetworkEngine
			if shared {
				eng = bounds.NewNetworkEngine(sc.Net)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < cells; c++ {
					cellEng := eng
					if !shared {
						cellEng = bounds.NewNetworkEngine(sc.Net)
					}
					s := cellEng.NewRun()
					for j := range sc.Tasks {
						v := views[sc.Tasks[j].B]
						h, err := s.NewHandle(v)
						if err != nil {
							b.Fatal(err)
						}
						sigma := run.At(v.Origin())
						if _, _, err := h.KnowledgeWeight(sigma, sigma); err != nil {
							b.Fatal(err)
						}
						h.Release()
					}
				}
			}
			b.ReportMetric(cells, "cells")
		},
	}
}

// sweepSeeded measures a seed-scaling block of live multi-agent sweep cells
// under a DETERMINISTIC policy: every seed records the identical run, which
// is exactly the redundancy the content-addressed standing-prefix tier
// (bounds.PrefixEngine) collapses. Each cell stamps a per-run Shared,
// subscribes one handle per agent to that agent's fully-grown view, answers
// a knowledge query per task, and releases. With prefix=true the cells route
// through NewRunAt with the run fingerprint: the first seed misses and
// freezes the fully-absorbed standing graph, every later seed stamps the
// frozen prefix instead of re-absorbing the run (sweep.Grid copies repeat
// seeds' rows and stamps only across scenarios). With prefix=false every cell
// absorbs from scratch through NewRun — the shared-network baseline the
// acceptance criterion compares against. The engine is rebuilt every
// iteration so one op prices a complete block: network-tier build plus one
// miss plus seeds-1 hits (or seeds full absorptions for the baseline).
func sweepSeeded(m, seeds int, name string, prefix bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d/seeds=%d", name, m, seeds),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			observed := make(map[model.ProcID]bool, len(sc.Tasks))
			for i := range sc.Tasks {
				observed[sc.Tasks[i].B] = true
			}
			r, err := sc.Simulate(nil)
			if err != nil {
				b.Fatal(err)
			}
			views := finalViews(r, observed)
			fp := r.Fingerprint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := bounds.NewNetworkEngine(sc.Net)
				for c := 0; c < seeds; c++ {
					var s *bounds.Shared
					if prefix {
						s, _ = eng.NewRunAt(fp)
					} else {
						s = eng.NewRun()
					}
					for j := range sc.Tasks {
						v := views[sc.Tasks[j].B]
						h, err := s.NewHandle(v)
						if err != nil {
							b.Fatal(err)
						}
						sigma := run.At(v.Origin())
						if _, _, err := h.KnowledgeWeight(sigma, sigma); err != nil {
							b.Fatal(err)
						}
						h.Release()
					}
					if prefix {
						s.CommitPrefix()
					}
				}
			}
			b.ReportMetric(float64(seeds), "cells")
		},
	}
}

// SweepReplayLive measures one COMPLETE live sweep cell end to end — the
// policy-driven environment, FFIP flooding, the run recording, every
// agent's view and every Protocol2 decision — through live.Replay. The
// NetworkEngine is built outside the timer, as sweep.Grid amortizes it
// across a block; each iteration is one full cell under a fresh seeded
// random policy, so the case prices exactly what the sweep's live grid
// dimension pays per cell.
func SweepReplayLive(m int) Case {
	return Case{
		Name: fmt.Sprintf("SweepReplayLive/m=%d", m),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			eng := bounds.NewNetworkEngine(sc.Net)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agents, agentMap := live.NewTaskAgents(sc.TaskList())
				res, err := live.Replay(live.Config{
					Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(int64(i)),
					Externals: sc.Externals, Agents: agentMap, Engine: eng,
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := range agents {
					if err := agents[j].Err(); err != nil {
						b.Fatal(err)
					}
				}
				if res.Run.NumNodes() == 0 {
					b.Fatal("empty run")
				}
			}
		},
	}
}

// SweepSharedNetwork is the cross-run amortization benchmark: a block of
// live-style multi-agent sweep cells all served by one per-network
// knowledge engine.
func SweepSharedNetwork(m int) Case { return sweepNetwork(m, "SweepSharedNetwork", true) }

// SweepPrefixShared is the seed-scaling benchmark of the standing-prefix
// tier: seeds deterministic cells over one network, the first freezing the
// absorbed standing graph and the rest stamping the frozen prefix.
func SweepPrefixShared(m, seeds int) Case { return sweepSeeded(m, seeds, "SweepPrefixShared", true) }

// SweepSharedNetworkSeeds is the prefix-blind baseline recorded alongside
// SweepPrefixShared: identical deterministic cells, each absorbing the run
// from scratch through the shared network engine.
func SweepSharedNetworkSeeds(m, seeds int) Case {
	return sweepSeeded(m, seeds, "SweepSharedNetwork", false)
}

// SweepRebuildNetwork is the rebuild-per-cell baseline recorded alongside
// SweepSharedNetwork: identical cells, each re-deriving the network tier.
func SweepRebuildNetwork(m int) Case { return sweepNetwork(m, "SweepRebuildNetwork", false) }

// Protocol2Shared is the shared-engine multi-agent decision loop: one
// bounds.Shared standing graph serves all m agents.
func Protocol2Shared(m int) Case { return protocol2Multi(m, "Protocol2Shared", true) }

// Protocol2MultiOnline is the per-agent-engine baseline recorded alongside
// Protocol2Shared: identical workload, each agent on its own private
// one-handle run.
func Protocol2MultiOnline(m int) Case { return protocol2Multi(m, "Protocol2MultiOnline", false) }

// Protocol2Online is the end-to-end online coordination decision with the
// agent's default incremental engine, a private one-handle run: every
// state of B pays only for the view's growth.
func Protocol2Online(n int) Case { return protocol2(n, "Protocol2Online", false, coord.Late) }

// Protocol2Rebuild is the rebuild-per-state baseline recorded alongside
// Protocol2Online: identical workload, but B reconstructs GE(r, sigma)
// from scratch at every state.
func Protocol2Rebuild(n int) Case { return protocol2(n, "Protocol2Rebuild", true, coord.Late) }

// Protocol2EarlyOnline is the Early-kind online decision loop with the
// agent's default private one-handle run: the moving-source query shape,
// up to the state where the decision settles.
func Protocol2EarlyOnline(n int) Case {
	return protocol2(n, "Protocol2EarlyOnline", false, coord.Early)
}

// Protocol2EarlyRebuild is the fresh-build-per-state baseline recorded
// alongside the Early variants.
func Protocol2EarlyRebuild(n int) Case {
	return protocol2(n, "Protocol2EarlyRebuild", true, coord.Early)
}

// ScalingSimulate measures lockstep simulator throughput (the B1 row). The
// nodes metric is the determinism guard: it must stay identical across
// perf-only changes.
func ScalingSimulate(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingSimulate/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			var nodes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := in.Simulate(sim.NewRandom(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				nodes = r.NumNodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		},
	}
}

// ScalingEarlyWarm measures one warm Early-kind query against a long view:
// an observer of a lazy complete network, whose handle has served a forward
// query and then built its reverse cache for a fixed target, asks again
// from its moving source with nothing new to absorb. The query costs its
// (empty) delta, so ns/op must stay flat as the horizon, and with it the
// standing graph, grows. The nodes metric is the observer's view size.
func ScalingEarlyWarm(horizon model.Time) Case {
	return Case{
		Name: fmt.Sprintf("ScalingEarlyWarm/horizon=%d", horizon),
		Run: func(b *testing.B) {
			net := model.MustComplete(4, 1, 5)
			r := sim.MustSimulate(sim.Config{
				Net: net, Horizon: horizon, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
			})
			const observer = 2
			view := finalViews(r, map[model.ProcID]bool{observer: true})[observer]
			target, ok := view.Boundary(1)
			if !ok || target.IsInitial() || view.Origin().Index < 3 {
				b.Fatal("observer's view too short for the query shape")
			}
			h, err := bounds.NewNetworkEngine(net).NewRun().NewHandle(view)
			if err != nil {
				b.Fatal(err)
			}
			theta2 := run.At(target)
			query := func(src run.BasicNode) {
				if _, known, err := h.KnowledgeWeight(run.At(src), theta2); err != nil || !known {
					b.Fatalf("query from %s: known=%v err=%v", src, known, err)
				}
			}
			// The first source builds the forward cache, the second misses it
			// and builds the reverse cache for theta2; every measured query
			// is then a reverse warm hit.
			query(run.BasicNode{Proc: observer, Index: 1})
			query(run.BasicNode{Proc: observer, Index: 2})
			sigma := view.Origin()
			before := h.Stats().RevHits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(sigma)
			}
			b.StopTimer()
			if hits := h.Stats().RevHits - before; hits != int64(b.N) {
				b.Fatalf("%d of %d measured queries were reverse warm hits", hits, b.N)
			}
			b.ReportMetric(float64(view.Size()), "nodes")
		},
	}
}

// ScalingBasicGraph measures dense GB(r) construction (the B1 row).
func ScalingBasicGraph(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingBasicGraph/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			r, err := in.Simulate(sim.NewRandom(5))
			if err != nil {
				b.Fatal(err)
			}
			var edges int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				edges = bounds.NewBasic(r).NumEdges()
			}
			if edges == 0 {
				b.Fatal("no edges")
			}
			b.ReportMetric(float64(edges), "edges")
		},
	}
}

// ScalingKnowledge measures one extended-graph build plus knowledge query —
// the per-decision cost of offline Protocol 2.
func ScalingKnowledge(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingKnowledge/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			r, err := in.Simulate(sim.NewRandom(5))
			if err != nil {
				b.Fatal(err)
			}
			window := in.WindowNodes(r)
			sigma := window[len(window)-1]
			ps, err := run.ViewOf(r, sigma)
			if err != nil {
				b.Fatal(err)
			}
			var theta1 run.GeneralNode
			for _, node := range window {
				if ps.Contains(node) && !node.IsInitial() {
					theta1 = run.At(node)
					break
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ext, err := bounds.NewExtended(r, sigma)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := ext.KnowledgeWeight(theta1, run.At(sigma)); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// knowsCase measures a page of threshold knowledge queries against a
// standing extended graph — the query shape Protocol2 issues at every
// state — through the weight-only fast path (Knows: one SPFA, one
// comparison, no witness) or the witness-bearing KnowledgeWeight it
// replaced as the threshold-query engine.
func knowsCase(n int, name string, weightOnly bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/n=%d", name, n),
		Run: func(b *testing.B) {
			in := instance(n)
			r, err := in.Simulate(sim.NewRandom(int64(n) * 7))
			if err != nil {
				b.Fatal(err)
			}
			window := in.WindowNodes(r)
			sigma := window[len(window)-1]
			ext, err := bounds.NewExtended(r, sigma)
			if err != nil {
				b.Fatal(err)
			}
			ps := ext.Past()
			var cands []run.GeneralNode
			for _, node := range window {
				if ps.Contains(node) && !node.IsInitial() {
					cands = append(cands, run.At(node))
				}
			}
			if len(cands) > 8 {
				cands = cands[len(cands)-8:]
			}
			if len(cands) < 2 {
				b.Fatal("no query candidates in window")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ci, t1 := range cands {
					for cj, t2 := range cands {
						if ci == cj {
							continue
						}
						if weightOnly {
							if _, err := ext.Knows(t1, 1, t2); err != nil {
								b.Fatal(err)
							}
						} else {
							_, _, known, err := ext.KnowledgeWeight(t1, t2)
							if err != nil {
								b.Fatal(err)
							}
							_ = known
						}
					}
				}
			}
			b.ReportMetric(float64(len(cands)*(len(cands)-1)), "queries")
		},
	}
}

// KnowsWeightOnly prices the threshold query as Protocol2 now issues it:
// weight-only, zero witness allocation.
func KnowsWeightOnly(n int) Case { return knowsCase(n, "KnowsWeightOnly", true) }

// KnowsWitnessPath is the witness-bearing baseline recorded alongside
// KnowsWeightOnly: the identical queries through KnowledgeWeight, paying
// for predecessor tracking and Step materialization nobody reads.
func KnowsWitnessPath(n int) Case { return knowsCase(n, "KnowsWitnessPath", false) }

// xVariants expands one multi-agent coordination scenario across nx
// separation thresholds, marked as an x-axis family the way sweep.Axes
// marks them (XBase/XValue plus per-task X overrides).
func xVariants(m, nx int) []*scenario.Scenario {
	base := scenario.MultiAgent(m)
	out := make([]*scenario.Scenario, 0, nx)
	for x := 0; x < nx; x++ {
		cp := *base
		cp.Name = fmt.Sprintf("%s@x=%d", base.Name, x)
		cp.XBase = base.Name
		cp.XValue = x
		cp.Tasks = append([]coord.Task(nil), base.Tasks...)
		for j := range cp.Tasks {
			cp.Tasks[j].X = x
		}
		cp.Task = &cp.Tasks[0]
		out = append(out, &cp)
	}
	return out
}

// sweepX measures a complete live sweep over an nx-point x axis of one
// coordination scenario — the grid carve, every execution, agent decisions
// and result assembly — either batched (one grid: one execution per
// (policy, seed) answering every x row through KnowsAt grids and fanned
// results) or dedicated (one one-scenario grid per x, which cannot form an
// x-group: one execution per x, each on its own network engine).
func sweepX(m, nx int, name string, dedicated bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d/xs=%d", name, m, nx),
		Run: func(b *testing.B) {
			grid := func(scs ...*scenario.Scenario) sweep.Grid {
				return sweep.Grid{
					Live: scs,
					Policies: []sweep.PolicySpec{
						{Name: "lazy", New: func(int64) sim.Policy { return sim.Lazy{} }, Deterministic: true},
					},
					Seeds:   []int64{1},
					Workers: 1,
				}
			}
			variants := xVariants(m, nx)
			grids := []sweep.Grid{grid(variants...)}
			if dedicated {
				grids = grids[:0]
				for _, sc := range variants {
					grids = append(grids, grid(sc))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, g := range grids {
					results, err := g.Run()
					if err != nil {
						b.Fatal(err)
					}
					for j := range results {
						if results[j].Err != nil {
							b.Fatal(results[j].Err)
						}
					}
				}
			}
			b.ReportMetric(float64(nx), "cells")
		},
	}
}

// SweepBatchedX is the x-collapsed live sweep: one execution answers the
// whole x axis. At m=16, xs=8 it takes about 2.3x less time and 2.5x fewer
// bytes than SweepPerX (2-vCPU VM, go1.24.0).
func SweepBatchedX(m, nx int) Case { return sweepX(m, nx, "SweepBatchedX", false) }

// SweepPerX is the dedicated per-x baseline recorded alongside
// SweepBatchedX: the same cells, one full execution per x value.
func SweepPerX(m, nx int) Case { return sweepX(m, nx, "SweepPerX", true) }
