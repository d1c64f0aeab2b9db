package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// The staged trace splits a sweep into its layers by running every unit of
// the grid (a cell, or an x-batched group of cells) as cumulative stages,
// each a complete execution of its own:
//
//	schedule  sim.Simulate of the unit's run: policy, arrival buckets, run
//	          builder — the environment loop without views or agents
//	+view     live.Replay without agents: the same schedule plus every
//	          process's run.View absorb/merge and payload snapshots
//	+sync     live.Replay with agents that subscribe engine handles and
//	          Sync them exactly over the states the real agents query, but
//	          never ask a knowledge query
//	+query    live.Replay with the real Protocol2 agents — the cell itself
//
// A layer's cost is the difference between consecutive stages, so the
// layers of a live unit add up to its full execution. Sim cells are the
// schedule plus the offline optimum (coord.Task.RunOptimal). The aggregate
// layer and the total come from a complete traced sweep run alongside, and
// grid_overhead_ms is what the sweep spends outside the attributed layers:
// engine construction, fingerprint pre-simulation and the job carve.

// syncAgent shadows one Protocol2 agent's engine traffic: it subscribes a
// handle once C's go event is in its view — when Protocol2 first queries —
// syncs it at every state up to the state the agent acts at (stop; the zero
// node means the agent never acts), then releases it, as Protocol2 does.
type syncAgent struct {
	task   coord.Task
	stop   run.BasicNode
	shared *bounds.Shared
	h      *bounds.Handle
	done   bool
	err    error
}

func (a *syncAgent) UseShared(s *bounds.Shared) { a.shared = s }

func (a *syncAgent) OnState(v *run.View, _ []string) []string {
	if a.done || a.err != nil {
		return nil
	}
	if a.h == nil {
		label := a.task.GoLabel
		if label == "" {
			label = "go"
		}
		if _, ok := v.FindExternal(a.task.C, label); !ok {
			return nil
		}
		if a.h, a.err = a.shared.NewHandle(v); a.err != nil {
			return nil
		}
	}
	if a.err = a.h.Sync(); a.err != nil {
		return nil
	}
	if v.Origin() == a.stop {
		a.done = true
		a.h.Release()
	}
	return nil
}

// unit is one execution of the sweep: a single cell, or every x variant of
// one base scenario under one (policy, seed), primary first.
type unit []int

func unitsOf(cs []cell) []unit {
	type key struct {
		base, pol string
		seed      int64
	}
	var units []unit
	group := make(map[key]int)
	for i, c := range cs {
		if c.live && c.sc.XBase != "" {
			k := key{c.sc.XBase, c.spec.Name, c.seed}
			if u, ok := group[k]; ok {
				units[u] = append(units[u], i)
				continue
			}
			group[k] = len(units)
		}
		units = append(units, unit{i})
	}
	return units
}

// layers accumulates one staged pass over the grid.
type layers struct {
	schedule, view, sync, query, optimum time.Duration
	// Heap bytes allocated per layer; signed because a difference of two
	// stages can come out slightly negative.
	scheduleAlloc, viewAlloc, syncAlloc, queryAlloc, optimumAlloc int64
	optimumStates                                                 int
	cells, failed                                                 int
}

// span is one recorded interval of the trace file.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Cell    string `json:"cell,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

// stage runs f, records its span under parent and returns its duration and
// the heap bytes it allocated. No GC is forced between stages: a forced GC
// shrinks the heap goal, so small stages would pay more collections than
// they do inside a sweep.
func (tr *tracer) stage(parent int, name, cell string, f func() error) (time.Duration, int64, error) {
	runtime.ReadMemStats(&tr.ms)
	a0 := tr.ms.TotalAlloc
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	runtime.ReadMemStats(&tr.ms)
	tr.add(parent, name, cell, t0, t1)
	return t1.Sub(t0), int64(tr.ms.TotalAlloc - a0), err
}

func (tr *tracer) add(parent int, name, cell string, t0, t1 time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		StartUS: t0.Sub(tr.t0).Microseconds(), EndUS: t1.Sub(tr.t0).Microseconds()})
	return id
}

// engines holds one knowledge engine per network, as a sweep shares them.
type engines map[uint64]*bounds.NetworkEngine

func (m engines) of(net *model.Network) *bounds.NetworkEngine {
	fp := net.Fingerprint()
	if m[fp] == nil {
		m[fp] = bounds.NewNetworkEngine(net)
	}
	return m[fp]
}

// prefixFP is the run fingerprint a live unit offers the standing-prefix
// cache: the recorded run of a deterministic policy, else none.
func prefixFP(c cell, e expected) uint64 {
	if c.spec.Deterministic {
		return e.runFP
	}
	return 0
}

// queryUnit executes live unit u the way the sweep does: live.Replay with
// the real Protocol2 agents on eng — one batched agent per task, with the
// whole x grid, for an x-batched group.
func queryUnit(cs []cell, u unit, eng *bounds.NetworkEngine, fp uint64) ([]*live.Protocol2, *live.Result, error) {
	c := cs[u[0]]
	agents, agentMap := live.NewTaskAgents(c.sc.TaskList())
	if len(u) > 1 {
		for j := range agents {
			agents[j].XGrid = make([]int, len(u))
			for v, i := range u {
				agents[j].XGrid[v] = cs[i].sc.TaskList()[j].X
			}
		}
	}
	out, err := live.Replay(live.Config{Net: c.sc.Net, Horizon: c.sc.Horizon, Externals: c.sc.Externals,
		Policy: c.spec.New(c.seed), Agents: agentMap, Engine: eng, Fingerprint: fp})
	return agents, out, err
}

// verifyAgents executes every live unit once, in grid order with engines
// shared per network, and checks every agent's act state (or batched
// decision) against the reference. It returns the live cells checked and
// how many of them disagree.
func verifyAgents(cs []cell, units []unit, exp []expected) (checked, failed int, err error) {
	eng := engines{}
	for _, u := range units {
		c := cs[u[0]]
		if !c.live {
			continue
		}
		agents, out, err := queryUnit(cs, u, eng.of(c.sc.Net), prefixFP(c, exp[u[0]]))
		if err != nil {
			return 0, 0, err
		}
		checked += len(u)
		failed += checkAgents(agents, out, exp, u)
	}
	return checked, failed, nil
}

// stagedPass runs every unit of the grid through the cumulative stages.
// Stages +sync and +query each get fresh per-network engines, in grid
// order, so their standing-prefix hits and misses match the sweep's.
func stagedPass(tr *tracer, parent int, cs []cell, units []unit, exp []expected) (*layers, error) {
	ly := &layers{}
	syncEng, queryEng := engines{}, engines{}
	for _, u := range units {
		c := cs[u[0]]
		name := fmt.Sprintf("%s/%s/%d", c.sc.Name, c.spec.Name, c.seed)
		cfg := live.Config{Net: c.sc.Net, Horizon: c.sc.Horizon, Externals: c.sc.Externals}
		var r0 *run.Run
		d0, a0, err := tr.stage(parent, "schedule", name, func() (err error) {
			r0, err = sim.Simulate(sim.Config{Net: cfg.Net, Horizon: cfg.Horizon,
				Policy: c.spec.New(c.seed), Externals: cfg.Externals})
			return err
		})
		if err != nil {
			return nil, err
		}
		ly.schedule += d0
		ly.scheduleAlloc += a0
		ly.cells += len(u)
		if r0.Fingerprint() != exp[u[0]].runFP {
			ly.failed += len(u)
		}
		if !c.live {
			if c.sc.Task == nil {
				continue
			}
			var out *coord.Outcome
			d, a, err := tr.stage(parent, "optimum", name, func() (err error) {
				out, err = c.sc.Task.RunOptimal(r0)
				return err
			})
			if err != nil {
				return nil, err
			}
			ly.optimum += d
			ly.optimumAlloc += a
			ly.optimumStates += out.NodesExamined
			if e := exp[u[0]]; out.Acted != e.acted || (out.Acted && int(out.ActTime) != e.actTime) {
				ly.failed++
			}
			continue
		}

		fp := prefixFP(c, exp[u[0]])
		d1, a1, err := tr.stage(parent, "schedule+view", name, func() error {
			cfg.Policy = c.spec.New(c.seed)
			_, err := live.Replay(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}

		tasks := c.sc.TaskList()
		syncs := make(map[model.ProcID]live.Agent, len(tasks))
		syncAgents := make([]*syncAgent, len(tasks))
		for j, t := range tasks {
			syncAgents[j] = &syncAgent{task: t, stop: groupStop(exp, u, j)}
			syncs[t.B] = syncAgents[j]
		}
		d2, a2, err := tr.stage(parent, "schedule+view+sync", name, func() error {
			cfg.Policy = c.spec.New(c.seed)
			cfg.Agents, cfg.Engine, cfg.Fingerprint = syncs, syncEng.of(c.sc.Net), fp
			_, err := live.Replay(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, a := range syncAgents {
			if a.err != nil {
				return nil, a.err
			}
		}

		var agents []*live.Protocol2
		var out *live.Result
		d3, a3, err := tr.stage(parent, "schedule+view+sync+query", name, func() (err error) {
			agents, out, err = queryUnit(cs, u, queryEng.of(c.sc.Net), fp)
			return err
		})
		if err != nil {
			return nil, err
		}
		ly.failed += checkAgents(agents, out, exp, u)

		ly.view += d1 - d0
		ly.sync += d2 - d1
		ly.query += d3 - d2
		ly.viewAlloc += a1 - a0
		ly.syncAlloc += a2 - a1
		ly.queryAlloc += a3 - a2
	}
	return ly, nil
}

// groupStop is the state after which task j's agent stops querying in unit
// u: its act state for a single cell; for an x-batched group, the last act
// state across the variants when every variant acts (the batched agent
// queries until its whole grid is decided), else never.
func groupStop(exp []expected, u unit, j int) run.BasicNode {
	var stop run.BasicNode
	for _, i := range u {
		s := exp[i].stops[j]
		if s == (run.BasicNode{}) {
			return run.BasicNode{}
		}
		if s.Index > stop.Index {
			stop = s
		}
	}
	return stop
}

// checkAgents compares every agent's act (or, in a batched group, every
// per-variant decision) with the offline optimum and returns the number of
// cells that disagree.
func checkAgents(agents []*live.Protocol2, out *live.Result, exp []expected, u unit) int {
	failed := make(map[int]bool)
	for j, a := range agents {
		if a.Err() != nil {
			return len(u)
		}
		if len(u) == 1 {
			var got run.BasicNode
			for _, act := range out.Actions {
				if act.Label == live.TaskLabel(j) {
					got = act.Node
				}
			}
			if got != exp[u[0]].stops[j] {
				failed[u[0]] = true
			}
			continue
		}
		d := a.XDecisions()
		for v, i := range u {
			var got run.BasicNode
			if d != nil && d[v].Decided {
				got = d[v].Node
			}
			if got != exp[i].stops[j] {
				failed[i] = true
			}
		}
	}
	return len(failed)
}

// traceRun repeats a staged pass plus a complete traced sweep for d and
// reports the per-layer metrics as medians over the repetitions; the spans
// are written to .bench_build/trace-<workload>-<seed>.json.
func traceRun(g *sweep.Grid, exp []expected, d time.Duration, tracePath string) (*result, error) {
	cs := cells(g)
	units := unitsOf(cs)
	tr := &tracer{t0: time.Now()}
	res := &result{}
	var ls []*layers
	var sweeps []*sweepRun
	for len(ls) == 0 || time.Since(tr.t0) < d {
		t0 := time.Now()
		it := tr.add(0, "iteration", "", t0, t0)
		ly, err := stagedPass(tr, it, cs, units, exp)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sr, err := sweepOnce(g, exp)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		sw := tr.add(it, "sweep", "", t1, t2)
		tr.add(sw, "grid", "", t1, t1.Add(sr.grid))
		tr.add(sw, "aggregate", "", t1.Add(sr.grid), t1.Add(sr.grid+sr.aggregate))
		tr.spans[it-1].EndUS = t2.Sub(tr.t0).Microseconds()
		ls = append(ls, ly)
		sweeps = append(sweeps, sr)
		res.Attempted += ly.cells + len(exp)
		res.Failed += ly.failed + sr.failed
	}

	ms := func(f func(i int) time.Duration) float64 {
		xs := make([]float64, len(ls))
		for i := range ls {
			xs[i] = float64(f(i)) / float64(time.Millisecond)
		}
		return quantile(xs, 0.5)
	}
	kib := func(f func(l *layers) int64) float64 {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = float64(f(l)) / 1024
		}
		return quantile(xs, 0.5)
	}
	attributed := func(i int) time.Duration {
		l := ls[i]
		return l.schedule + l.view + l.sync + l.query + l.optimum
	}
	// Work counters repeat exactly for a seed; take them from the last sweep.
	last := sweeps[len(sweeps)-1]
	st := last.report.Stats
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	count := func(v int64) metric { return metric{float64(v), "count"} }
	res.Metrics = map[string]metric{
		"schedule_ms":        {ms(func(i int) time.Duration { return ls[i].schedule }), "ms"},
		"view_ms":            {ms(func(i int) time.Duration { return ls[i].view }), "ms"},
		"sync_ms":            {ms(func(i int) time.Duration { return ls[i].sync }), "ms"},
		"query_ms":           {ms(func(i int) time.Duration { return ls[i].query }), "ms"},
		"optimum_ms":         {ms(func(i int) time.Duration { return ls[i].optimum }), "ms"},
		"aggregate_ms":       {ms(func(i int) time.Duration { return sweeps[i].aggregate }), "ms"},
		"traced_sweep_ms":    {ms(func(i int) time.Duration { return sweeps[i].grid + sweeps[i].aggregate }), "ms"},
		"sweep_alloc_kib":    {float64(last.alloc) / 1024, "KiB"},
		"grid_overhead_ms":   {ms(func(i int) time.Duration { return sweeps[i].grid - attributed(i) }), "ms"},
		"schedule_alloc_kib": {kib(func(l *layers) int64 { return l.scheduleAlloc }), "KiB"},
		"view_alloc_kib":     {kib(func(l *layers) int64 { return l.viewAlloc }), "KiB"},
		"sync_alloc_kib":     {kib(func(l *layers) int64 { return l.syncAlloc }), "KiB"},
		"query_alloc_kib":    {kib(func(l *layers) int64 { return l.queryAlloc }), "KiB"},
		"optimum_alloc_kib":  {kib(func(l *layers) int64 { return l.optimumAlloc }), "KiB"},
		"optimum_states":     count(int64(ls[0].optimumStates)),
		"replay_states":      count(st.ReplayBatches),
		"relaxations":        count(st.Relaxations),
		"rev_relaxations":    count(st.RevRelaxations),
		"band_refreshes":     count(st.BandRefreshes),
		"rev_hit_ratio":      {ratio(st.RevHits, st.RevHits+st.RevRebuilds), "ratio"},
		"prefix_hit_ratio":   {ratio(st.PrefixHits, st.PrefixHits+st.PrefixMisses), "ratio"},
		"clone_kib":          {float64(st.CloneBytes) / 1024, "KiB"},
		"batch_hit_ratio":    {ratio(st.BatchHits, st.BatchQueries), "ratio"},
		"x_fanout":           count(st.XFanout),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced iterations of %d units\n", len(ls), len(units))
	if err := writeSpans(tracePath, tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
