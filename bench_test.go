// Benchmarks: one per experiment row of DESIGN.md §5. Each benchmark
// regenerates the corresponding paper artifact — figure scenario, theorem
// check or protocol comparison — and reports domain metrics alongside
// ns/op: realized gaps, bound weights, graph sizes.
//
// Run with: go test -bench=. -benchmem
package zigzag_test

import (
	"fmt"
	"testing"

	zigzag "github.com/clockless/zigzag"
	"github.com/clockless/zigzag/internal/bench"
	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
	"github.com/clockless/zigzag/internal/timing"
	"github.com/clockless/zigzag/internal/workload"
)

// BenchmarkFigure1 (E1): the fork coordination decision — simulate the
// Figure 1 network and run Protocol 2 for B.
func BenchmarkFigure1(b *testing.B) {
	sc := scenario.Figure1(scenario.DefaultFigure1())
	var gap int
	for i := 0; i < b.N; i++ {
		r, err := sc.Simulate(sim.Lazy{})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sc.Task.RunOptimal(r)
		if err != nil || !out.Acted {
			b.Fatalf("acted=%v err=%v", out != nil && out.Acted, err)
		}
		gap = out.Gap
	}
	b.ReportMetric(float64(gap), "gap")
}

// BenchmarkFigure2a (E2): extract and verify the Equation (1) zigzag.
func BenchmarkFigure2a(b *testing.B) {
	p := scenario.DefaultFigure2()
	sc := scenario.Figure2a(p)
	r := sc.MustSimulate(sim.Eager{})
	w, err := sc.Task.Wire(r)
	if err != nil {
		b.Fatal(err)
	}
	bNode := run.BasicNode{Proc: sc.Proc("B"), Index: 1}
	var weight int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := bounds.NewBasic(r)
		z, wt, found, err := pattern.ExtractBasic(gb, w.ABasic, bNode)
		if err != nil || !found {
			b.Fatalf("found=%v err=%v", found, err)
		}
		if err := z.Verify(r); err != nil {
			b.Fatal(err)
		}
		weight = wt
	}
	b.ReportMetric(float64(weight), "wt(Z)")
	b.ReportMetric(float64(p.EquationOne()), "eq1")
}

// BenchmarkFigure2b (E3): the full visible-zigzag coordination decision.
func BenchmarkFigure2b(b *testing.B) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	r := sc.MustSimulate(sim.Lazy{})
	var known int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sc.Task.RunOptimal(r)
		if err != nil || !out.Acted {
			b.Fatal(err)
		}
		known = out.KnownBound
	}
	b.ReportMetric(float64(known), "known_bound")
}

// BenchmarkFigure3 (E4): multi-hop fork weight extraction.
func BenchmarkFigure3(b *testing.B) {
	sc := scenario.Figure3(scenario.DefaultFigure3())
	r := sc.MustSimulate(sim.Eager{})
	head := run.BasicNode{Proc: sc.Proc("HEAD"), Index: 1}
	tail := run.BasicNode{Proc: sc.Proc("TAIL"), Index: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := bounds.NewBasic(r)
		if _, _, found, err := pattern.ExtractBasic(gb, tail, head); err != nil || !found {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 (E5): the three-fork sigma-visible zigzag decision.
func BenchmarkFigure4(b *testing.B) {
	sc := scenario.Figure4(scenario.DefaultFigure4())
	r := sc.MustSimulate(sim.Eager{})
	var forks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sc.Task.RunOptimal(r)
		if err != nil || !out.Acted {
			b.Fatal(err)
		}
		forks = out.Witness.Len()
	}
	b.ReportMetric(float64(forks), "forks")
}

// BenchmarkFigure6 (E6): basic bounds graph construction on the minimal
// one-delivery run.
func BenchmarkFigure6(b *testing.B) {
	sc := scenario.Figure6(2, 5)
	r := sc.MustSimulate(sim.Eager{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := bounds.NewBasic(r)
		if gb.NumEdges() == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkFigure7 (E7): longest-path query behind Equation (1).
func BenchmarkFigure7(b *testing.B) {
	sc := scenario.Figure2a(scenario.DefaultFigure2())
	r := sc.MustSimulate(sim.Eager{})
	w, err := sc.Task.Wire(r)
	if err != nil {
		b.Fatal(err)
	}
	bNode := run.BasicNode{Proc: sc.Proc("B"), Index: 1}
	gb := bounds.NewBasic(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found, err := gb.LongestBetween(w.ABasic, bNode); err != nil || !found {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 (E8): extended bounds graph construction at B's
// decision node.
func BenchmarkFigure8(b *testing.B) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	r := sc.MustSimulate(sim.Eager{})
	out, err := sc.Task.RunOptimal(r)
	if err != nil || !out.Acted {
		b.Fatal(err)
	}
	var edges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := bounds.NewExtended(r, out.ActNode)
		if err != nil {
			b.Fatal(err)
		}
		edges = ext.NumEdges()
	}
	b.ReportMetric(float64(edges), "GE_edges")
}

// BenchmarkTheorem1 (T1): zigzag extraction + verification on random
// instances.
func BenchmarkTheorem1(b *testing.B) {
	in := workload.MustGenerate(workload.DefaultConfig(1))
	r, err := in.Simulate(sim.NewRandom(13))
	if err != nil {
		b.Fatal(err)
	}
	window := in.WindowNodes(r)
	s1, s2 := window[0], window[len(window)-1]
	gb := bounds.NewBasic(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, _, found, err := pattern.ExtractBasic(gb, s1, s2)
		if err != nil {
			b.Fatal(err)
		}
		if found {
			if err := z.Verify(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTheorem2 (T2): the slow-run tightness construction.
func BenchmarkTheorem2(b *testing.B) {
	in := workload.MustGenerate(workload.DefaultConfig(2))
	r, err := in.Simulate(sim.NewRandom(7))
	if err != nil {
		b.Fatal(err)
	}
	window := in.WindowNodes(r)
	sigma2 := window[len(window)-1]
	gb := bounds.NewBasic(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.BuildSlow(gb, sigma2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem4 (T4): knowledge query plus the fast-run tightness
// construction.
func BenchmarkTheorem4(b *testing.B) {
	in := workload.MustGenerate(workload.DefaultConfig(3))
	r, err := in.Simulate(sim.NewRandom(17))
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
	for _, n := range window {
		if ps.Contains(n) && !n.IsInitial() {
			theta1 = run.At(n)
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := bounds.NewExtended(r, sigma)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := ext.KnowledgeWeight(theta1, run.At(sigma)); err != nil {
			b.Fatal(err)
		}
		if _, err := timing.BuildFast(r, sigma, theta1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocalVsExtended (DESIGN §5, ablation row): the cost of a
// local-graph query vs a full extended-graph knowledge query — the price of
// the auxiliary horizon vertices.
func BenchmarkAblationLocalVsExtended(b *testing.B) {
	in := workload.MustGenerate(workload.DefaultConfig(4))
	r, err := in.Simulate(sim.NewRandom(11))
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
	var s1 run.BasicNode
	for _, n := range window {
		if ps.Contains(n) && !n.IsInitial() {
			s1 = n
			break
		}
	}
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ext.LocalWeight(s1, sigma); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ext.KnowledgeWeight(run.At(s1), run.At(sigma)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveEngine: live execution of Figure 2b with an online
// Protocol-2 agent — the end-to-end cost of a live clockless system.
func BenchmarkLiveEngine(b *testing.B) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	for i := 0; i < b.N; i++ {
		agent := &live.Protocol2{Task: *sc.Task}
		res, err := live.Replay(live.Config{
			Net: sc.Net, Horizon: sc.Horizon, Policy: sim.Lazy{}, Externals: sc.Externals,
			Agents: map[model.ProcID]live.Agent{sc.Task.B: agent},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Actions) == 0 {
			b.Fatal("online agent never acted")
		}
	}
}

// BenchmarkLateCoordination (P1): optimal vs baseline on the Late sweep
// topology (Figure 2b plus a weak feedback channel).
func BenchmarkLateCoordination(b *testing.B) {
	p := scenario.DefaultFigure2()
	p.X = 3 // within reach of both protocols; the baseline still lags
	sc0 := scenario.Figure2b(p)
	sc, err := sc0.WithChannel("A", "B", 1, 6)
	if err != nil {
		b.Fatal(err)
	}
	r := sc.MustSimulate(sim.Lazy{})
	var optAt, baseAt int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := sc.Task.RunOptimal(r)
		if err != nil || !opt.Acted {
			b.Fatal(err)
		}
		base, err := sc.Task.RunBaseline(r)
		if err != nil || !base.Acted {
			b.Fatal(err)
		}
		optAt, baseAt = opt.ActTime, base.ActTime
	}
	b.ReportMetric(float64(optAt), "optimal_t")
	b.ReportMetric(float64(baseAt), "baseline_t")
}

// BenchmarkEarlyCoordination (P2): the Early decision on the takeoff
// network (the baseline cannot act at all there).
func BenchmarkEarlyCoordination(b *testing.B) {
	sc := scenario.Takeoff(4)
	r := sc.MustSimulate(sim.Lazy{})
	var lead int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sc.Task.RunOptimal(r)
		if err != nil || !out.Acted {
			b.Fatal(err)
		}
		lead = -out.Gap
	}
	b.ReportMetric(float64(lead), "lead")
}

// BenchmarkScalingSimulate (B1): simulator throughput vs network size. The
// body lives in internal/bench, as do all the Scaling/Protocol2 families
// below.
func BenchmarkScalingSimulate(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		c := bench.ScalingSimulate(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkScalingBasicGraph (B1): GB construction vs network size. The
// construction is dense (degree-counted CSR-style adjacency, no per-edge
// metadata), so allocs/op must stay constant as n grows — guarded by
// TestNewBasicAllocationGuard in internal/bounds.
func BenchmarkScalingBasicGraph(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		c := bench.ScalingBasicGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkScalingKnowledge (B1): extended graph + knowledge query vs
// network size — the per-decision cost of offline Protocol 2.
func BenchmarkScalingKnowledge(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		c := bench.ScalingKnowledge(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkScalingEarlyWarm (B1): one warm Early-kind query (moving
// source, fixed target, reverse cache primed) vs horizon. It costs its
// delta, not the graph, so ns/op stays flat as the horizon grows.
func BenchmarkScalingEarlyWarm(b *testing.B) {
	for _, h := range []model.Time{50, 400} {
		c := bench.ScalingEarlyWarm(h)
		b.Run(fmt.Sprintf("horizon=%d", h), c.Run)
	}
}

// BenchmarkScalingLive (B1): the live engine vs network size — environment
// scheduling, FFIP relaying and per-state view frontiers, with no agents.
func BenchmarkScalingLive(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		c := bench.ScalingLive(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkProtocol2Online (B1): the end-to-end online coordination
// decision with the agent's default incremental engine, a private
// one-handle run — every state of B pays only for its view's growth.
func BenchmarkProtocol2Online(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		c := bench.Protocol2Online(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkProtocol2Rebuild is the rebuild-per-state baseline recorded
// alongside BenchmarkProtocol2Online: identical workload, but B
// reconstructs GE(r, sigma) from scratch at every state (the pre-online
// agent). It stops at n=32 — a single rebuild-per-state run at n=64 takes
// over a minute, which is exactly the cost the online engine amortizes
// away.
func BenchmarkProtocol2Rebuild(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		c := bench.Protocol2Rebuild(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkProtocol2EarlyOnline (B1): the Early-kind online decision loop —
// the query source moves with B's state while the target stays fixed. The
// agent queries until A's node enters B's past, where its decision settles
// (coord.Task.Settled); BenchmarkScalingEarlyWarm times the engine's
// reverse (fixed-target) cache, which serves warm Early queries.
func BenchmarkProtocol2EarlyOnline(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		c := bench.Protocol2EarlyOnline(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkProtocol2EarlyRebuild is the fresh-build-per-state baseline
// recorded alongside the Early variants; like Protocol2Rebuild it stops at
// n=32.
func BenchmarkProtocol2EarlyRebuild(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		c := bench.Protocol2EarlyRebuild(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkProtocol2Shared (B1): m concurrent Protocol2 agents deciding
// over one run through ONE shared per-run knowledge engine (bounds.Shared)
// — the standing bounds graph is built once and every agent pays only its
// frontier handle. Compare against BenchmarkProtocol2MultiOnline, the
// identical workload on m private one-handle runs.
func BenchmarkProtocol2Shared(b *testing.B) {
	for _, m := range scenario.MultiAgentSizes {
		c := bench.Protocol2Shared(m)
		b.Run(fmt.Sprintf("m=%d", m), c.Run)
	}
}

// BenchmarkProtocol2MultiOnline is the per-agent-engine baseline recorded
// alongside BenchmarkProtocol2Shared: every agent maintains its own
// standing graph of (almost entirely) the same run.
func BenchmarkProtocol2MultiOnline(b *testing.B) {
	for _, m := range scenario.MultiAgentSizes {
		c := bench.Protocol2MultiOnline(m)
		b.Run(fmt.Sprintf("m=%d", m), c.Run)
	}
}

// BenchmarkSweepSharedNetwork (B1): a block of live-style multi-agent
// sweep cells — per cell: one per-run bounds.Shared, one handle per agent,
// full-run absorption and a knowledge query — all served by ONE
// bounds.NetworkEngine, the way sweep.Grid drives its live dimension. The
// network-lifetime tier (aux psi band + E”' prototype, presizing hints,
// scratch pool) is paid once and amortized across every cell; compare
// against BenchmarkSweepRebuildNetwork.
func BenchmarkSweepSharedNetwork(b *testing.B) {
	for _, m := range []int{4, 8} {
		c := bench.SweepSharedNetwork(m)
		b.Run(fmt.Sprintf("m=%d", m), c.Run)
	}
	// Seed-scaling sub-runs: deterministic cells absorbing from scratch, the
	// prefix-blind baseline BenchmarkSweepPrefixShared is compared against.
	for _, seeds := range []int{4, 16, 64} {
		c := bench.SweepSharedNetworkSeeds(4, seeds)
		b.Run(fmt.Sprintf("m=%d/seeds=%d", 4, seeds), c.Run)
	}
}

// BenchmarkSweepPrefixShared (B1): the standing-prefix tier under seed
// scaling — seeds deterministic live cells over one network all record the
// identical run, so the first cell freezes its fully-absorbed standing graph
// into the content-addressed prefix cache and every later seed stamps the
// frozen prefix instead of re-absorbing. Acceptance: at 16 seeds this path
// must allocate at most half of the matching BenchmarkSweepSharedNetwork
// seeds=16 baseline per op.
func BenchmarkSweepPrefixShared(b *testing.B) {
	for _, seeds := range []int{4, 16, 64} {
		c := bench.SweepPrefixShared(4, seeds)
		b.Run(fmt.Sprintf("m=%d/seeds=%d", 4, seeds), c.Run)
	}
}

// BenchmarkSweepReplayLive (B1): one COMPLETE live sweep cell per op —
// policy-driven environment, FFIP flooding, the run recording, the agents'
// views and every Protocol2 decision — through live.Replay, the execution every live sweep
// cell runs: the environment steps one tick at a time and every agent is
// driven state by state in a single goroutine.
func BenchmarkSweepReplayLive(b *testing.B) {
	for _, m := range scenario.MultiAgentSizes {
		c := bench.SweepReplayLive(m)
		b.Run(fmt.Sprintf("m=%d", m), c.Run)
	}
}

// BenchmarkSweepRebuildNetwork is the rebuild-per-cell baseline recorded
// alongside BenchmarkSweepSharedNetwork: identical cells, each re-deriving
// the aux band, hint tables and scratch buffers from scratch — what every
// sweep cell paid before the engine hierarchy existed.
func BenchmarkSweepRebuildNetwork(b *testing.B) {
	for _, m := range []int{4, 8} {
		c := bench.SweepRebuildNetwork(m)
		b.Run(fmt.Sprintf("m=%d", m), c.Run)
	}
}

// BenchmarkKnowsWeightOnly (B1): a page of threshold knowledge queries
// through the weight-only fast path — one SPFA, one comparison, no witness
// Steps. Acceptance: zero allocations per warmed-up query (guarded by
// TestKnowsAllocationGuard in internal/bounds) and strictly cheaper than
// BenchmarkKnowsWitnessPath at every n.
func BenchmarkKnowsWeightOnly(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		c := bench.KnowsWeightOnly(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkKnowsWitnessPath is the witness-bearing baseline recorded
// alongside BenchmarkKnowsWeightOnly: the identical queries through
// KnowledgeWeight, paying for predecessor tracking and witness
// materialization threshold consumers never read.
func BenchmarkKnowsWitnessPath(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		c := bench.KnowsWitnessPath(n)
		b.Run(fmt.Sprintf("n=%d", n), c.Run)
	}
}

// BenchmarkSweepBatchedX (B1): a complete live sweep over an 8-point x
// axis of the m=16 coordination scenario with the axis collapsed — one
// execution per (policy, seed) answers every x row through KnowsAt
// threshold grids and fans the results out. At xs=8 it takes about 2.3x
// less time and 2.5x fewer bytes than BenchmarkSweepPerX (2-vCPU VM,
// go1.24.0).
func BenchmarkSweepBatchedX(b *testing.B) {
	for _, nx := range []int{4, 8} {
		c := bench.SweepBatchedX(16, nx)
		b.Run(fmt.Sprintf("xs=%d", nx), c.Run)
	}
}

// BenchmarkSweepPerX is the dedicated per-x baseline recorded alongside
// BenchmarkSweepBatchedX: the same cells as one-scenario grids, one full
// execution per x value — what every multi-x sweep paid before the batched
// plane.
func BenchmarkSweepPerX(b *testing.B) {
	for _, nx := range []int{4, 8} {
		c := bench.SweepPerX(16, nx)
		b.Run(fmt.Sprintf("xs=%d", nx), c.Run)
	}
}

// BenchmarkSweepOffline (B1): the flagship's sim cells at one seed — every
// registry scenario up to coord-m16 under the four default policies — as
// one grid on one worker: the schedule, the recording and the offline
// optimum, no knowledge engine. Each execution records into the tables the
// previous one recycled, which -benchmem shows as bytes per op.
func BenchmarkSweepOffline(b *testing.B) {
	scs, err := sweep.Axes{MaxCoordM: 16}.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	g := sweep.Grid{Scenarios: scs, Policies: sweep.DefaultPolicies(), Seeds: []int64{1}, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
	b.ReportMetric(float64(g.Size()), "cells")
}

// BenchmarkFacadeRoundTrip exercises the public API end to end, as the
// quickstart example does.
func BenchmarkFacadeRoundTrip(b *testing.B) {
	net, err := zigzag.NewNetwork(3).
		Chan(1, 2, 1, 3).
		Chan(1, 3, 8, 12).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	task := zigzag.Task{Kind: zigzag.Late, X: 5, A: 2, B: 3, C: 1, GoTime: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := task.Simulate(net, zigzag.LazyPolicy{}, 40)
		if err != nil {
			b.Fatal(err)
		}
		out, err := task.RunOptimal(r)
		if err != nil || !out.Acted {
			b.Fatal(err)
		}
	}
}
