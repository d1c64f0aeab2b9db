package main

import (
	"fmt"
	"sort"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sweep"
)

// cell is one grid cell in the grid's enumeration order: sim cells first,
// then live cells, each block scenario-major, then policy, then seed —
// the order sweep.Grid.Run returns its results in.
type cell struct {
	sc   *scenario.Scenario
	spec sweep.PolicySpec
	seed int64
	live bool
}

func cells(g *sweep.Grid) []cell {
	var out []cell
	add := func(scs []*scenario.Scenario, live bool) {
		for _, sc := range scs {
			for _, spec := range g.Policies {
				for _, seed := range g.Seeds {
					out = append(out, cell{sc: sc, spec: spec, seed: seed, live: live})
				}
			}
		}
	}
	add(g.Scenarios, false)
	add(g.Live, true)
	return out
}

// expected is the reference outcome of one cell, computed without the
// sweep: the cell's run simulated offline and every task decided from
// scratch-built extended graphs (decider), each act audited against the
// task specification. Protocol 2 must act exactly where the knowledge-optimal
// protocol does, live or offline, so every row is checked against it.
type expected struct {
	runFP uint64
	nodes int
	deliv int

	// Sim cells: the first task's offline outcome.
	hasTask                  bool
	acted                    bool
	actTime, gap, knownBound int

	// Live cells: agents hosted, agents acting, earliest act, and per task
	// the state the agent acts at (zero when it never acts).
	agents, agentsActed int
	stops               []run.BasicNode

	// prefix is the standing-prefix outcome a deterministic, non-x live cell
	// must report ("" when the cell bypasses the cache).
	prefix string
	// xFanout is the group size on the primary row of an x-batched group.
	xFanout int
}

// decider answers, for one task on one run, where the knowledge-optimal
// agent acts — the first state sigma of B whose past holds sigma_C and
// whose extended graph GE(r, sigma) knows the required separation
// (Theorem 4). It rebuilds GE(r, sigma) from scratch per probed state
// through bounds.NewExtended and the witness-bearing KnowledgeWeight,
// sharing no state with the incremental engines a sweep runs. Probes are
// memoized per state, so every threshold of an x axis shares them.
type decider struct {
	r    *run.Run
	t    coord.Task // X unused: thresholds are passed per query
	w    *coord.Wiring
	memo map[int]probe
}

type probe struct {
	hasC, known bool
	kw          int
}

func (d *decider) probe(k int) (probe, error) {
	if p, ok := d.memo[k]; ok {
		return p, nil
	}
	sigma := run.BasicNode{Proc: d.t.B, Index: k}
	ext, err := bounds.NewExtended(d.r, sigma)
	if err != nil {
		return probe{}, err
	}
	p := probe{hasC: ext.Past().Contains(d.w.SigmaC)}
	if p.hasC {
		theta1, theta2 := d.w.ANode, run.At(sigma)
		if d.t.Kind == coord.Early {
			theta1, theta2 = theta2, theta1
		}
		if p.kw, _, p.known, err = ext.KnowledgeWeight(theta1, theta2); err != nil {
			return probe{}, err
		}
	}
	d.memo[k] = p
	return p, nil
}

func (d *decider) holds(k, x int) (bool, error) {
	p, err := d.probe(k)
	return p.hasC && p.known && p.kw >= x, err
}

// first returns the index of the acting state for threshold x (0 when the
// agent never acts) and the knowledge weight there. Known facts are true in
// the actual run, so only states where the separation really holds can
// act: for Early a prefix of B's timeline, scanned in order; for Late a
// suffix, on which knowledge is also monotone (sigma_C stays in the past
// and kw never decreases as B's state advances), so it is bisected.
func (d *decider) first(x int) (int, int, error) {
	last := d.r.LastIndex(d.t.B)
	gap := func(k int) int { return int(d.r.MustTime(run.BasicNode{Proc: d.t.B, Index: k}) - d.w.ATime) }
	found := 0
	if d.t.Kind == coord.Early {
		for k := 1; k <= last && -gap(k) >= x; k++ {
			ok, err := d.holds(k, x)
			if err != nil {
				return 0, 0, err
			}
			if ok {
				found = k
				break
			}
		}
	} else {
		lo := sort.Search(last, func(i int) bool { return gap(i+1) >= x }) + 1
		if lo > last {
			return 0, 0, nil
		}
		ok, err := d.holds(last, x)
		if err != nil || !ok {
			return 0, 0, err
		}
		var perr error
		found = lo + sort.Search(last-lo, func(i int) bool {
			ok, err := d.holds(lo+i, x)
			if err != nil {
				perr = err
			}
			return ok
		})
		if perr != nil {
			return 0, 0, perr
		}
	}
	if found == 0 {
		return 0, 0, nil
	}
	return found, d.memo[found].kw, nil
}

// reference computes the expected outcome of every cell. Runs are shared by
// cells that must record the identical run (x variants of one base, every
// seed of a deterministic policy) and deciders by (run, task modulo X).
func reference(g *sweep.Grid) ([]expected, error) {
	type runKey struct {
		base, pol string
		seed      int64
	}
	type decKey struct {
		fp   uint64
		task coord.Task
	}
	runs := make(map[runKey]*run.Run)
	decs := make(map[decKey]*decider)
	// act resolves where t's agent acts on r and audits the act against the
	// task specification.
	act := func(r *run.Run, t coord.Task) (node run.BasicNode, actTime, gap, kw int, err error) {
		k := decKey{r.Fingerprint(), t}
		k.task.X = 0
		d := decs[k]
		if d == nil {
			w, err := t.Wire(r)
			if err != nil {
				return node, 0, 0, 0, err
			}
			d = &decider{r: r, t: t, w: w, memo: make(map[int]probe)}
			decs[k] = d
		}
		idx, kw, err := d.first(t.X)
		if err != nil || idx == 0 {
			return node, 0, 0, 0, err
		}
		node = run.BasicNode{Proc: t.B, Index: idx}
		at := r.MustTime(node)
		if err := t.AuditAct(r, at); err != nil {
			return node, 0, 0, 0, fmt.Errorf("reference act violates its task: %w", err)
		}
		return node, int(at), int(at - d.w.ATime), kw, nil
	}

	cs := cells(g)
	exp := make([]expected, len(cs))
	type prefixKey struct{ net, run uint64 }
	frozen := make(map[prefixKey]bool)
	groups := make(map[runKey]int) // x-batched group -> primary cell
	for i, c := range cs {
		base := c.sc.Name
		if c.sc.XBase != "" {
			base = c.sc.XBase
		}
		rk := runKey{base, c.spec.Name, c.seed}
		if c.spec.Deterministic {
			rk.seed = 0
		}
		r := runs[rk]
		if r == nil {
			var err error
			if r, err = c.sc.Simulate(c.spec.New(c.seed)); err != nil {
				return nil, fmt.Errorf("cell %d (%s/%s): %w", i, c.sc.Name, c.spec.Name, err)
			}
			runs[rk] = r
		}
		e := &exp[i]
		e.runFP = r.Fingerprint()
		e.nodes = r.NumNodes()
		e.deliv = len(r.Deliveries())
		if !c.live {
			if c.sc.Task == nil {
				continue
			}
			node, at, gap, kw, err := act(r, *c.sc.Task)
			if err != nil {
				return nil, fmt.Errorf("cell %d (%s/%s): %w", i, c.sc.Name, c.spec.Name, err)
			}
			e.hasTask, e.acted = true, node.Index > 0
			if e.acted {
				e.actTime, e.gap, e.knownBound = at, gap, kw
			}
			continue
		}
		tasks := c.sc.TaskList()
		e.agents = len(tasks)
		e.stops = make([]run.BasicNode, len(tasks))
		for j, t := range tasks {
			node, at, _, _, err := act(r, t)
			if err != nil {
				return nil, fmt.Errorf("cell %d (%s/%s) task %d: %w", i, c.sc.Name, c.spec.Name, j, err)
			}
			if node.Index == 0 {
				continue
			}
			e.stops[j] = node
			if e.agentsActed == 0 || at < e.actTime {
				e.actTime = at
			}
			e.agentsActed++
		}
		switch {
		case c.sc.XBase != "":
			gk := runKey{c.sc.XBase, c.spec.Name, c.seed}
			if p, ok := groups[gk]; ok {
				exp[p].xFanout++
			} else {
				groups[gk] = i
				e.xFanout = 1
			}
		case c.spec.Deterministic:
			pk := prefixKey{c.sc.Net.Fingerprint(), r.Fingerprint()}
			e.prefix = sweep.PrefixHit
			if !frozen[pk] {
				frozen[pk] = true
				e.prefix = sweep.PrefixMiss
			}
		}
	}
	return exp, nil
}

// check compares one sweep's results against the reference and returns how
// many cells failed or disagreed, with the first disagreement.
func check(exp []expected, results []sweep.Result, rep sweep.EngineReport) (failed int, first error) {
	if len(results) != len(exp) {
		return len(exp), fmt.Errorf("sweep returned %d results for %d cells", len(results), len(exp))
	}
	note := func(i int, format string, args ...any) {
		failed++
		if first == nil {
			r := results[i]
			first = fmt.Errorf("cell %d (%s/%s seed %d): %s", i, r.Scenario, r.Policy, r.Seed,
				fmt.Sprintf(format, args...))
		}
	}
	var hits, misses, fanout int64
	for i := range results {
		r, e := &results[i], &exp[i]
		switch {
		case r.Err != nil:
			note(i, "error: %v", r.Err)
		case r.Nodes != e.nodes || r.Deliveries != e.deliv:
			note(i, "run shape %d nodes/%d deliveries, want %d/%d", r.Nodes, r.Deliveries, e.nodes, e.deliv)
		case r.HasTask != e.hasTask || r.Acted != e.acted:
			note(i, "offline acted=%v (task %v), want %v (task %v)", r.Acted, r.HasTask, e.acted, e.hasTask)
		case r.Acted && (r.ActTime != e.actTime || r.Gap != e.gap || r.KnownBound != e.knownBound):
			note(i, "offline act t=%d gap=%d kw=%d, want t=%d gap=%d kw=%d",
				r.ActTime, r.Gap, r.KnownBound, e.actTime, e.gap, e.knownBound)
		case r.Agents != e.agents || r.AgentsActed != e.agentsActed:
			note(i, "%d/%d agents acted, offline optimum has %d/%d", r.AgentsActed, r.Agents, e.agentsActed, e.agents)
		case r.AgentsActed > 0 && r.ActTime != e.actTime:
			note(i, "first live act at %d, offline optimum at %d", r.ActTime, e.actTime)
		case r.Prefix != e.prefix:
			note(i, "prefix %q, want %q", r.Prefix, e.prefix)
		case r.XFanout != e.xFanout:
			note(i, "x-fanout %d, want %d", r.XFanout, e.xFanout)
		}
		switch e.prefix {
		case sweep.PrefixHit:
			hits++
		case sweep.PrefixMiss:
			misses++
		}
		if e.xFanout > 0 {
			fanout += int64(e.xFanout - 1)
		}
	}
	st := rep.Stats
	if st.PrefixHits != hits || st.PrefixMisses != misses || st.XFanout != fanout {
		failed++
		if first == nil {
			first = fmt.Errorf("engine counters: prefix %d hit/%d miss, x-fanout %d; want %d/%d, %d",
				st.PrefixHits, st.PrefixMisses, st.XFanout, hits, misses, fanout)
		}
	}
	return failed, first
}
