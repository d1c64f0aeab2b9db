// Package sweep runs scenario × policy × seed grids of FFIP simulations
// concurrently and aggregates their outcomes. It is the batch engine behind
// `zigzag-sim -sweep`: a worker pool sized to GOMAXPROCS executes every cell
// of the grid, while results and aggregates are reported in the grid's
// deterministic enumeration order (scenario-major, then policy, then seed)
// regardless of the number of workers.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/stats"
)

// ErrEmptyGrid reports a grid with no cells to run.
var ErrEmptyGrid = errors.New("sweep: empty grid")

// Cell execution modes: offline simulation plus paper analysis, or a live
// execution (live.Replay) with one Protocol2 agent per task subscribing to
// a per-network knowledge engine.
const (
	ModeSim    = "sim"
	ModeReplay = "replay"
)

// PolicySpec names a delivery-policy family and constructs a fresh instance
// per cell. Stateful policies (sim.Random) must not be shared across cells,
// so the grid carries factories rather than policy values.
//
// Deterministic declares that the family's schedule ignores the seed: every
// seed of a deterministic policy produces the identical run, so the grid
// executes only the first seed of each fault-free cell and copies its
// Result to the other seeds (RunWithEngines). A wrong mark therefore copies
// wrong rows without any error; leave it false for seed-sensitive families.
type PolicySpec struct {
	Name          string
	New           func(seed int64) sim.Policy
	Deterministic bool
}

// DefaultPolicies returns the canonical policy families: the two latency
// extremes, the seeded uniform-random environment and the seeded
// heavy-tailed environment (fast common case, stragglers to the deadline).
func DefaultPolicies() []PolicySpec {
	return []PolicySpec{
		{Name: "eager", New: func(int64) sim.Policy { return sim.Eager{} }, Deterministic: true},
		{Name: "lazy", New: func(int64) sim.Policy { return sim.Lazy{} }, Deterministic: true},
		{Name: "random", New: func(seed int64) sim.Policy { return sim.NewRandom(seed) }},
		{Name: "heavy", New: func(seed int64) sim.Policy { return sim.NewHeavyTail(seed) }},
	}
}

// Grid is a scenario × policy × seed sweep specification, with an optional
// live dimension: scenarios listed in Live run through the live environment
// (one Protocol2 agent per coordination task) instead of the offline
// simulate-and-analyze path.
type Grid struct {
	// Scenarios lists the sim cells' scenarios: each cell reports its run's
	// shape and its Task's offline optimum. Fault-free sim cells of one
	// policy and seed whose scenarios record the same run (sameRecording:
	// equal network content, horizon and externals) form a sim unit that
	// ONE simulation answers, each task's optimum read from that run
	// (simUnit); the others are units of one.
	Scenarios []*scenario.Scenario
	// Live lists scenarios additionally executed as live cells: live.Replay
	// drives one live.Protocol2 agent per task, all subscribing (through
	// per-run bounds.Shared handles) to ONE bounds.NetworkEngine per
	// distinct network content (see RunWithEngines). Live cells enumerate
	// after the sim cells, scenario-major, then policy, then seed, and
	// report as ModeReplay. Fault-free x-axis variants of one base
	// scenario (scenario.Scenario.XBase) under one policy and seed form an
	// x-group that one execution answers; every other live cell is a group
	// of one (liveUnit).
	Live []*scenario.Scenario
	// LiveMode must be empty or ModeReplay, the one live execution mode;
	// any other value fails the run.
	LiveMode string
	Policies []PolicySpec
	Seeds    []int64
	// Workers bounds concurrent cells; <= 0 means GOMAXPROCS.
	Workers int
}

// sameRecording reports whether two scenarios record the identical run under
// one policy: same network content, horizon and externals — everything
// Scenario.Simulate reads besides the policy. Tasks never feed back into the
// schedule, so scenarios that differ only in their tasks share a recording.
func sameRecording(a, b *scenario.Scenario) bool {
	if a.Net.Fingerprint() != b.Net.Fingerprint() || a.Horizon != b.Horizon {
		return false
	}
	if len(a.Externals) != len(b.Externals) {
		return false
	}
	for i := range a.Externals {
		if a.Externals[i] != b.Externals[i] {
			return false
		}
	}
	return true
}

// xJoinable reports whether two x-axis variants of one base scenario can
// share a live execution: they record the same run (sameRecording) and
// their task vectors are equal modulo the per-task separation X — the one
// field the x axis is allowed to move. An axis point whose override leaked
// further (a scenario builder deriving bounds or schedules from x, like the
// domain scenarios' hold times) must not share an execution; its variants
// fall back to groups of one.
func xJoinable(a, b *scenario.Scenario) bool {
	if !sameRecording(a, b) {
		return false
	}
	ta, tb := a.TaskList(), b.TaskList()
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		t := ta[i]
		t.X = tb[i].X
		if t != tb[i] {
			return false
		}
	}
	return true
}

// Size returns the number of cells in the grid.
func (g Grid) Size() int {
	return (len(g.Scenarios) + len(g.Live)) * len(g.Policies) * len(g.Seeds)
}

// Result records the outcome of one grid cell. A cell that fails to
// simulate (or whose protocol run fails) carries the error in Err with the
// remaining metric fields zero.
type Result struct {
	Scenario string
	Policy   string
	Seed     int64
	// Mode is ModeSim or ModeReplay (empty results from older callers mean
	// sim).
	Mode string
	Err  error

	// Run shape.
	Nodes      int
	Deliveries int
	Pending    int

	// Coordination outcome, when the scenario poses a task (sim cells).
	HasTask    bool
	Acted      bool
	ActTime    int
	Gap        int
	KnownBound int

	// Live-cell outcome: how many Protocol2 agents ran and how many acted
	// within the horizon; ActTime carries the earliest act when any did.
	Agents      int
	AgentsActed int

	// Prefix reports how a deterministic live cell was served: PrefixHit
	// when an earlier identical run answered it (its knowledge engine was
	// stamped from that run's frozen standing graph, or its row was copied
	// from the first seed's), PrefixMiss when it built (and froze) the
	// standing graph itself. Empty for sim cells, fanned-out x rows and
	// seed-sensitive or faulted cells, which bypass the cache.
	Prefix string

	// Stats carries a live cell's execution counters (zero for sim cells):
	// its agents' knowledge-query counters summed, the receive batches
	// driven and the standing-prefix verdict as one hit or miss.
	Stats bounds.EngineStats

	// Fault-injected cell outcome (scenarios with a FaultFamily): agents
	// that ended the run degraded (withholding their action after a detected
	// bound violation), processes the plan crashed, and the injected
	// violations — every one a typed error, recovered into the cell result
	// rather than aborting the sweep.
	Degraded   int
	Crashed    int
	Violations int

	// XFanout, on the primary row of an x-group of two or more, is the
	// number of per-x result rows answered by this cell's single execution
	// (its own included); zero on the other rows and on groups of one.
	// Execution attribution — Prefix and Stats — also lands on the primary
	// row: the fanned rows ran no execution of their own.
	XFanout int
}

// Result.Prefix values.
const (
	PrefixHit  = "hit"
	PrefixMiss = "miss"
)

// EngineReport summarizes the knowledge-engine work behind a sweep's live
// cells: how many distinct networks (by content fingerprint) were served and
// the engines' cumulative counters summed — runs stamped, standing-prefix
// cache traffic, bytes copied stamping standing graphs, and SPFA relaxations
// across every knowledge query.
type EngineReport struct {
	Networks int
	Stats    bounds.EngineStats
}

// Run executes every cell of the grid across a worker pool and returns the
// results in enumeration order: scenario-major, then policy, then seed. The
// output is deterministic in the grid (worker count and scheduling do not
// affect it); per-cell failures are recorded in Result.Err rather than
// aborting the sweep.
func (g Grid) Run() ([]Result, error) {
	results, _, err := g.RunWithEngines()
	return results, err
}

// RunWithEngines is Run, additionally reporting the knowledge-engine work
// behind the grid's live cells.
//
// Cells execute in units, each one execution whose rows scatter back by
// cell index: a sim unit (the fault-free sim cells of one policy and seed
// that record the same run, answered by one simulation), a live x-group
// (the fault-free x-axis variants of one base scenario under one policy
// and seed, answered by one replay), or a single cell. So neither the rows
// nor their order depend on how cells share executions or on the worker
// count.
//
// A fault-free cell of a Deterministic policy records the same run under
// every seed and its agents decide from their views alone, so only the
// first seed of such a unit (a sim unit or a live unit) executes; once the
// pool drains, each other seed's row is copied from it with Seed
// rewritten. A copy carrying a prefix verdict reports a hit, noted
// on its engine with a copied primary's x-fanout, so prefix_hits,
// prefix_misses and x_fanout keep their per-cell meaning while the work
// counters count only what ran.
//
// ONE knowledge engine per distinct network CONTENT serves every live cell
// of that topology (keyed by content fingerprint, so axis variants that
// rebuild equal networks share it). Executing deterministic cells
// pre-simulate their run fingerprint and stamp through NewRunAt, so another
// scenario recording the same run stamps the standing graph the first one
// froze; to keep those verdicts independent of the worker count, the
// executing deterministic live units of one network run as one sequential
// job in enumeration order, every other unit as its own job.
func (g Grid) RunWithEngines() ([]Result, EngineReport, error) {
	if g.Size() == 0 {
		return nil, EngineReport{}, ErrEmptyGrid
	}
	if g.LiveMode != "" && g.LiveMode != ModeReplay {
		return nil, EngineReport{}, fmt.Errorf("sweep: unknown live mode %q", g.LiveMode)
	}
	for _, sc := range g.Scenarios {
		if sc == nil {
			return nil, EngineReport{}, fmt.Errorf("sweep: nil scenario in grid")
		}
	}
	for _, sc := range g.Live {
		if sc == nil {
			return nil, EngineReport{}, fmt.Errorf("sweep: nil live scenario in grid")
		}
	}
	engines := make(map[uint64]*bounds.NetworkEngine)
	for _, sc := range g.Live {
		if fp := sc.Net.Fingerprint(); engines[fp] == nil {
			engines[fp] = bounds.NewNetworkEngine(sc.Net)
		}
	}

	// Group the executing cells into units first. A live unit is an x-group
	// (every per-x variant of one base scenario under one policy and seed —
	// their recordings are identical, so ONE execution answers all of them)
	// or a single cell. A sim unit holds the fault-free sim cells of one
	// policy and seed that record the same run as its first cell
	// (sameRecording): one simulation answers every task's offline optimum.
	// Cells enumerate scenario-major, so a unit's cells accumulate in
	// enumeration order (x-axis order for an x-group) with the first as the
	// primary. Later seeds of deterministic cells are copies, not units.
	nSeeds, nPols := len(g.Seeds), len(g.Policies)
	type unit struct{ cells []int }
	// A cell may join the unit of its key: a live cell's x-axis base, or a
	// sim cell's network content and horizon (base empty), under one policy
	// and seed. The unit's first cell must pass join.
	type key struct {
		base      string
		net       uint64
		horizon   model.Time
		pol, seed int
	}
	var units []unit
	var copies []int
	unitOf := make(map[key]int)
	for i := 0; i < g.Size(); i++ {
		sc, spec, _, isLive := g.decode(i)
		if i%nSeeds > 0 && deterministic(sc, spec) {
			copies = append(copies, i)
			continue
		}
		// Only a fault-free cell joins a unit: a faulted live execution's
		// degradation timing may depend on when agents stop querying, which
		// differs per x. A live cell joins only x-axis variants of its base
		// scenario (sweep.Axes sets XBase): its agents are one per task's B,
		// so different task vectors cannot share a replay.
		var k key
		var join func(a, b *scenario.Scenario) bool
		switch {
		case sc.FaultFamily != "":
		case isLive && sc.XBase != "":
			k, join = key{base: sc.XBase}, xJoinable
		case !isLive:
			k, join = key{net: sc.Net.Fingerprint(), horizon: sc.Horizon}, sameRecording
		}
		if join != nil {
			k.pol, k.seed = (i/nSeeds)%nPols, i%nSeeds
			if ui, ok := unitOf[k]; ok {
				first, _, _, _ := g.decode(units[ui].cells[0])
				if join(first, sc) {
					units[ui].cells = append(units[ui].cells, i)
					continue
				}
			} else {
				unitOf[k] = len(units)
			}
		}
		units = append(units, unit{cells: []int{i}})
	}

	// Carve the units into jobs: one sequential block per network holding its
	// deterministic live units, singleton jobs for everything else.
	blocks := make(map[uint64][]unit)
	var blockOrder []uint64
	var jobList [][]unit
	for _, u := range units {
		if sc, spec, _, isLive := g.decode(u.cells[0]); isLive && deterministic(sc, spec) {
			fp := sc.Net.Fingerprint()
			if blocks[fp] == nil {
				blockOrder = append(blockOrder, fp)
			}
			blocks[fp] = append(blocks[fp], u)
		} else {
			jobList = append(jobList, []unit{u})
		}
	}
	for _, fp := range blockOrder {
		jobList = append(jobList, blocks[fp])
	}

	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobList) {
		workers = len(jobList)
	}

	results := make([]Result, g.Size())
	jobs := make(chan []unit)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for job := range jobs {
				for _, u := range job {
					g.execute(u.cells, engines, results)
				}
			}
		}()
	}
	for _, job := range jobList {
		jobs <- job
	}
	close(jobs)
	wg.Wait()

	for _, i := range copies {
		res := results[i-i%nSeeds]
		res.Seed = g.Seeds[i%nSeeds]
		if res.Prefix != "" {
			res.Prefix, res.Stats.PrefixHits, res.Stats.PrefixMisses = PrefixHit, 1, 0
			sc, _, _, _ := g.decode(i)
			engines[sc.Net.Fingerprint()].Note(bounds.EngineStats{PrefixHits: 1, XFanout: int64(max(res.XFanout-1, 0))})
		}
		results[i] = res
	}

	rep := EngineReport{Networks: len(engines)}
	for _, eng := range engines {
		rep.Stats.Add(eng.Stats())
	}
	return results, rep, nil
}

// decode maps the i-th cell of the enumeration to its coordinates: sim cells
// first, then live cells, each block scenario-major, then policy, then seed.
func (g Grid) decode(i int) (sc *scenario.Scenario, spec PolicySpec, seed int64, isLive bool) {
	nSeeds, nPols := len(g.Seeds), len(g.Policies)
	scIdx := i / (nPols * nSeeds)
	spec = g.Policies[(i/nSeeds)%nPols]
	seed = g.Seeds[i%nSeeds]
	if scIdx >= len(g.Scenarios) {
		return g.Live[scIdx-len(g.Scenarios)], spec, seed, true
	}
	return g.Scenarios[scIdx], spec, seed, false
}

// deterministic reports whether the cell records the same run under every
// seed: a Deterministic policy on a fault-free scenario (a fault plan
// depends on the seed).
func deterministic(sc *scenario.Scenario, spec PolicySpec) bool {
	return spec.Deterministic && sc.FaultFamily == ""
}

// predict returns the run fingerprint a live cell stamps its engine at:
// the pre-simulated run of a deterministic cell, zero (no prefix lookup)
// for every other cell.
func predict(sc *scenario.Scenario, spec PolicySpec, seed int64) (uint64, error) {
	if !deterministic(sc, spec) {
		return 0, nil
	}
	r, err := sc.Simulate(spec.New(seed))
	if err != nil {
		return 0, err
	}
	fp := r.Fingerprint()
	r.Recycle()
	return fp, nil
}

// execute runs one unit of the enumeration — a sim unit (simUnit) or a
// live unit (liveUnit), each of one or more cells — and scatters its rows
// into results. A panic escaping the unit — a malformed scenario, a bug
// surfaced by an adversarial fault plan — is recovered into every cell's
// Err, so one bad unit degrades its rows of the grid instead of killing the
// whole sweep.
func (g Grid) execute(cells []int, engines map[uint64]*bounds.NetworkEngine, results []Result) {
	scs := make([]*scenario.Scenario, len(cells))
	var spec PolicySpec
	var seed int64
	var isLive bool
	for j, i := range cells {
		scs[j], spec, seed, isLive = g.decode(i)
	}
	defer func() {
		if r := recover(); r != nil {
			mode := ModeSim
			if isLive {
				mode = ModeReplay
			}
			for j, i := range cells {
				results[i] = Result{Scenario: scs[j].Name, Policy: spec.Name, Seed: seed,
					Mode: mode, Err: fmt.Errorf("sweep: cell panicked: %v", r)}
			}
		}
	}()
	var rows []Result
	if isLive {
		rows = liveUnit(scs, spec, seed, engines[scs[0].Net.Fingerprint()])
	} else {
		rows = simUnit(scs, spec, seed)
	}
	for j, res := range rows {
		results[cells[j]] = res
	}
}

// simUnit executes one sim unit and returns its rows, one per scenario: the
// scenarios record the same run (sameRecording), so ONE simulation under the
// policy serves the unit, and each row reads its run shape and its task's
// offline optimum from it (Theorem 4: the optimum depends on the recorded
// run and the task alone). An optimum that fails marks its own row only; a
// failed simulation marks every row. The rows hold no part of the run, so
// once the last is derived the run's tables go to the next execution
// (run.Run.Recycle).
func simUnit(scs []*scenario.Scenario, spec PolicySpec, seed int64) []Result {
	rs := make([]Result, len(scs))
	for j := range rs {
		rs[j] = Result{Scenario: scs[j].Name, Policy: spec.Name, Seed: seed, Mode: ModeSim}
	}
	r, err := scs[0].Simulate(spec.New(seed))
	if err != nil {
		for j := range rs {
			rs[j].Err = err
		}
		return rs
	}
	nodes, deliveries, pending := r.NumNodes(), r.NumDeliveries(), len(r.PendingMessages())
	for j, sc := range scs {
		res := &rs[j]
		res.Nodes, res.Deliveries, res.Pending = nodes, deliveries, pending
		if sc.Task == nil {
			continue
		}
		res.HasTask = true
		out, err := sc.Task.RunOptimal(r)
		if err != nil {
			res.Err = err
			continue
		}
		res.Acted = out.Acted
		if out.Acted {
			res.ActTime = int(out.ActTime)
			res.Gap = out.Gap
			res.KnownBound = out.KnownBound
		}
	}
	r.Recycle()
	return rs
}

// liveUnit executes one live unit and returns its rows, one per scenario:
// a plain or faulted live cell is a group of one, an x-group holds every
// per-x variant of one base scenario under one policy and seed. The
// scenarios' tasks become live.Protocol2 agents (one per task, labelled b1,
// b2, ...) subscribing to the network's shared engine. The variants differ
// only in task thresholds and record the identical run, so ONE execution
// serves the group: each agent of a group of two or more decides its
// per-variant thresholds as an XGrid, and every row is derived from the
// agents' decision trajectories — the state where threshold x became known
// is where a dedicated agent with that threshold acts. Scenarios without
// tasks still execute (pure FFIP relay runs) and report shape only.
// Deterministic units learn their run fingerprint up front (predict) and
// route their per-run engine through the network engine's standing-prefix
// cache. Execution attribution (prefix, replay batches and agent counters
// are real once) lands on the primary (first) row, which in a group of two
// or more also carries XFanout = group size. Once the rows are derived the
// run's tables go to the next execution (run.Run.Recycle).
func liveUnit(scs []*scenario.Scenario, spec PolicySpec, seed int64, eng *bounds.NetworkEngine) []Result {
	rs := make([]Result, len(scs))
	for j := range rs {
		rs[j] = Result{Scenario: scs[j].Name, Policy: spec.Name, Seed: seed, Mode: ModeReplay}
	}
	fail := func(err error) []Result {
		for j := range rs {
			rs[j].Err = err
		}
		return rs
	}
	sc := scs[0]
	var plan *faults.Plan
	if sc.FaultFamily != "" {
		p, err := faults.NewPlan(sc.FaultFamily, sc.Net, sc.Horizon, seed)
		if err != nil {
			return fail(err)
		}
		plan = p
	}
	runFP, err := predict(sc, spec, seed)
	if err != nil {
		return fail(err)
	}
	tasks := sc.TaskList()
	agents, agentMap := live.NewTaskAgents(tasks)
	if len(scs) > 1 {
		for j := range agents {
			agents[j].XGrid = make([]int, len(scs))
		}
		for v := range scs {
			for j, t := range scs[v].TaskList() {
				agents[j].XGrid[v] = t.X
			}
		}
	}
	out, err := live.Replay(live.Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: spec.New(seed),
		Externals: sc.Externals, Agents: agentMap, Engine: eng,
		Fingerprint: runFP, Faults: plan,
	})
	if err != nil {
		return fail(err)
	}
	for j := range agents {
		if aerr := agents[j].Err(); aerr != nil {
			return fail(fmt.Errorf("agent %s: %w", live.TaskLabel(j), aerr))
		}
	}
	for v := range rs {
		res := &rs[v]
		res.Nodes = out.Run.NumNodes()
		res.Deliveries = out.Run.NumDeliveries()
		res.Pending = len(out.Run.PendingMessages())
		res.Agents = len(tasks)
		res.Degraded = len(out.Degraded)
		res.Crashed = len(out.Crashed)
		res.Violations = len(out.Violations)
		for j := range agents {
			d := agents[j].XDecisions()
			if d == nil || !d[v].Decided {
				continue
			}
			t, terr := out.Run.Time(d[v].Node)
			if terr != nil {
				return fail(terr)
			}
			if res.AgentsActed == 0 || int(t) < res.ActTime {
				res.ActTime = int(t)
			}
			res.AgentsActed++
		}
	}
	// The agents' views and engine handles are done with the run: its
	// tables go to the next execution.
	out.Run.Recycle()
	// The primary row carries the execution: the standing-prefix verdict
	// (runFP != 0 means it went through the cache), the receive batches
	// driven and the agents' query counters.
	prim := &rs[0]
	switch {
	case runFP == 0:
	case out.PrefixHit:
		prim.Prefix, prim.Stats.PrefixHits = PrefixHit, 1
	default:
		prim.Prefix, prim.Stats.PrefixMisses = PrefixMiss, 1
	}
	prim.Stats.ReplayBatches = int64(out.ReplayBatches)
	for _, a := range agents {
		prim.Stats.Add(a.Stats())
	}
	if len(scs) > 1 {
		prim.XFanout = len(scs)
		if eng != nil {
			eng.Note(bounds.EngineStats{XFanout: int64(len(scs) - 1)})
		}
	}
	return rs
}

// Aggregate summarizes all cells of one (scenario, policy, mode) triple.
type Aggregate struct {
	Scenario string
	Policy   string
	// Mode is ModeSim or ModeReplay (empty from pre-mode results means
	// sim).
	Mode   string
	Runs   int
	Errors int

	Nodes      stats.Summary
	Deliveries stats.Summary

	// Coordination tallies over the sim cells that pose a task.
	TaskRuns int
	Acted    int
	Gap      stats.Summary // over acted cells

	// Live tallies: agents hosted and agents acted, summed over cells.
	AgentRuns   int
	AgentsActed int

	// Stats sums the group's Result.Stats. Its XFanout stays zero: the
	// engines count the executions x-fanout saved, the group counts rows.
	Stats bounds.EngineStats

	// XFanout sums the per-x rows answered by the group's x-batched
	// executions (zero for groups of one); the CSV's x-fanout column
	// exports it.
	XFanout int

	// Fault-injection tallies summed over the group's cells: degraded
	// agents, crashed processes and injected bound violations.
	Degraded   int
	Crashed    int
	Violations int

	// FirstErr is the first cell error of the group in enumeration order
	// ("" when every cell succeeded) — the chaos sweep's machine-checkable
	// err column.
	FirstErr string
}

// Summarize groups results by (scenario, policy, mode) in first-appearance
// order — for Grid.Run output, the grid's enumeration order — and computes
// the per-group aggregates.
func Summarize(results []Result) []Aggregate {
	type key struct{ sc, pol, mode string }
	idx := make(map[key]int)
	var aggs []Aggregate
	samples := make(map[key]*struct{ nodes, deliveries, gaps []float64 })
	for _, res := range results {
		k := key{res.Scenario, res.Policy, res.Mode}
		i, ok := idx[k]
		if !ok {
			i = len(aggs)
			idx[k] = i
			aggs = append(aggs, Aggregate{Scenario: res.Scenario, Policy: res.Policy, Mode: res.Mode})
			samples[k] = &struct{ nodes, deliveries, gaps []float64 }{}
		}
		a, s := &aggs[i], samples[k]
		a.Runs++
		if res.Err != nil {
			a.Errors++
			if a.FirstErr == "" {
				a.FirstErr = res.Err.Error()
			}
			continue
		}
		a.Degraded += res.Degraded
		a.Crashed += res.Crashed
		a.Violations += res.Violations
		s.nodes = append(s.nodes, float64(res.Nodes))
		s.deliveries = append(s.deliveries, float64(res.Deliveries))
		if res.HasTask {
			a.TaskRuns++
			if res.Acted {
				a.Acted++
				s.gaps = append(s.gaps, float64(res.Gap))
			}
		}
		a.AgentRuns += res.Agents
		a.AgentsActed += res.AgentsActed
		a.Stats.Add(res.Stats)
		a.XFanout += res.XFanout
	}
	for i := range aggs {
		s := samples[key{aggs[i].Scenario, aggs[i].Policy, aggs[i].Mode}]
		aggs[i].Nodes = stats.Summarize(s.nodes)
		aggs[i].Deliveries = stats.Summarize(s.deliveries)
		aggs[i].Gap = stats.Summarize(s.gaps)
	}
	return aggs
}

// Table renders aggregates as an aligned text table, one row per
// (scenario, policy, mode) triple, in the given order. The acted column
// reads acted/posed: task cells over task runs for sim rows, agents acted
// over agents hosted for live rows. The prefix column reads hits/routed
// over the group's standing-prefix cache traffic ("-" when the group
// bypasses the cache); the rev column reads warm-hits/reverse-queries over
// the group's reverse-cache traffic ("-" when no agent hit the Early
// shape); the replay column reads the batches driven by live cells ("-"
// for sim rows); the batch column reads
// free-hits/answers over the group's batched knowledge queries with the
// x-fanout row count in parentheses on primary rows ("-" when the group ran
// nothing batched). Fault-injected groups fill the degr column (degraded
// agents / agents hosted, plus the group's injected violations) and the err
// column carries the group's first cell error, truncated — "-" everywhere
// for clean groups.
func Table(aggs []Aggregate) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tmode\tpolicy\truns\terrs\tnodes\tdeliveries\tacted\tgap(mean)\tgap[min,max]\tprefix\trev\treplay\tbatch\tdegr\terr")
	for _, a := range aggs {
		acted := "-"
		gapMean := "-"
		gapRange := "-"
		if a.TaskRuns > 0 {
			acted = fmt.Sprintf("%d/%d", a.Acted, a.TaskRuns)
			if a.Acted > 0 {
				gapMean = fmt.Sprintf("%+.2f", a.Gap.Mean)
				gapRange = fmt.Sprintf("[%+.0f,%+.0f]", a.Gap.Min, a.Gap.Max)
			}
		}
		if a.AgentRuns > 0 {
			acted = fmt.Sprintf("%d/%d", a.AgentsActed, a.AgentRuns)
		}
		st := &a.Stats
		prefix := "-"
		if cached := st.PrefixHits + st.PrefixMisses; cached > 0 {
			prefix = fmt.Sprintf("%d/%d", st.PrefixHits, cached)
		}
		rev := "-"
		if q := st.RevHits + st.RevRebuilds; q > 0 {
			rev = fmt.Sprintf("%d/%d", st.RevHits, q)
		}
		replay := "-"
		if st.ReplayBatches > 0 {
			replay = strconv.FormatInt(st.ReplayBatches, 10)
		}
		batch := "-"
		if st.BatchQueries > 0 || a.XFanout > 0 {
			batch = fmt.Sprintf("%d/%d", st.BatchHits, st.BatchQueries)
			if a.XFanout > 0 {
				batch += fmt.Sprintf(" (x%d)", a.XFanout)
			}
		}
		degr := "-"
		if a.Degraded > 0 || a.Crashed > 0 || a.Violations > 0 {
			degr = fmt.Sprintf("%d/%d (%dv)", a.Degraded, a.AgentRuns, a.Violations)
		}
		errCol := "-"
		if a.FirstErr != "" {
			errCol = a.FirstErr
			if len(errCol) > 48 {
				errCol = errCol[:45] + "..."
			}
		}
		mode := a.Mode
		if mode == "" {
			mode = ModeSim
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.1f\t%.1f\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			a.Scenario, mode, a.Policy, a.Runs, a.Errors, a.Nodes.Mean, a.Deliveries.Mean,
			acted, gapMean, gapRange, prefix, rev, replay, batch, degr, errCol)
	}
	tw.Flush()
	return b.String()
}
