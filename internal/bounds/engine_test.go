// The engine-tier acceptance tests live in an external test package: they
// drive bounds.NetworkEngine through the real scenario.Registry catalogue,
// and scenario imports coord which imports bounds. The state order is
// bench.States — shared with the benchmark bodies — rather than another
// copy of the view-evolution loop.
package bounds_test

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bench"
	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// stateWalker walks the observer processes' views over a recorded run, one
// state at a time in (time, process) order — the incremental growth an
// agent's engine sees live.
type stateWalker struct {
	r      *run.Run
	states []run.BasicNode
	views  []*run.View
	next   int
}

func newStateWalker(t *testing.T, r *run.Run, observers map[model.ProcID]bool) *stateWalker {
	t.Helper()
	w := &stateWalker{r: r, states: bench.States(r, observers), views: make([]*run.View, r.Net().N())}
	for p := range observers {
		v, err := run.ViewOf(r, run.BasicNode{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		w.views[p-1] = v
	}
	return w
}

// step advances the view of the next observer state and returns that
// state's process, node index and view; ok is false once the run is
// exhausted.
func (w *stateWalker) step(t *testing.T) (p model.ProcID, k int, v *run.View, ok bool) {
	t.Helper()
	if w.next == len(w.states) {
		return 0, 0, nil, false
	}
	st := w.states[w.next]
	w.next++
	v = w.views[st.Proc-1]
	if _, err := v.Advance(w.r); err != nil {
		t.Fatal(err)
	}
	return st.Proc, st.Index, v, true
}

// registryQueryNodes picks up to max query nodes from a view: the origin,
// its chain hops over the last out-channel, and earlier boundary nodes of
// other processes — basic and chain-crossing general nodes in both roles.
func registryQueryNodes(v *run.View, max int) []run.GeneralNode {
	net := v.Net()
	var out []run.GeneralNode
	add := func(b run.BasicNode) {
		out = append(out, run.At(b))
		if arcs := net.OutArcs(b.Proc); len(arcs) > 0 && len(out) < max {
			out = append(out, run.At(b).Hop(arcs[len(arcs)-1].To))
		}
	}
	add(v.Origin())
	for p := model.ProcID(1); int(p) <= net.N() && len(out) < max; p++ {
		if bnd, ok := v.Boundary(p); ok && !bnd.IsInitial() && bnd != v.Origin() {
			add(bnd)
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// diffAgainstFresh compares every query-pair answer of a handle at its
// view's current state against a fresh NewExtendedFromView build.
func diffAgainstFresh(t *testing.T, tag string, h *bounds.Handle, v *run.View, maxQueries int) {
	t.Helper()
	fresh, err := bounds.NewExtendedFromView(v)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	qs := registryQueryNodes(v, maxQueries)
	for i, t1 := range qs {
		for j, t2 := range qs {
			if i == j && t1.IsBasic() {
				continue
			}
			wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(t1, t2)
			gotKW, gotKnown, gotErr := h.KnowledgeWeight(t1, t2)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s %s->%s: err fresh=%v engine=%v", tag, t1, t2, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if wantKnown != gotKnown || (wantKnown && wantKW != gotKW) {
				t.Fatalf("%s %s->%s: fresh (%d,%v) engine (%d,%v)",
					tag, t1, t2, wantKW, wantKnown, gotKW, gotKnown)
			}
		}
	}
}

// TestNetworkEngineMatchesFreshBuild is the engine hierarchy's differential
// acceptance test: for EVERY scenario of the full registry (multi-agent
// family included up to m=16), runs are stamped out of one per-network
// NetworkEngine, observer agents subscribe handles, and at every observer
// state every knowledge answer through the three-tier path —
// NetworkEngine.NewRun -> Shared -> Handle — is identical (weight,
// knownness and error class, both query directions, chain hops included) to
// a fresh NewExtendedFromView of that agent's own view. Two runs of each
// scenario under different policies go through the SAME engine value, so a
// run leaking state into the network tier (the cloned aux prototype, the
// hint tables, the pooled scratches) cannot escape the comparison. Each
// scenario owns its engine, so scenarios run as parallel subtests.
func TestNetworkEngineMatchesFreshBuild(t *testing.T) {
	reg := scenario.RegistrySized(0, 16)
	for _, name := range scenario.Names(reg) {
		name, sc := name, reg[name]
		if testing.Short() && sc.Net.N() > 8 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Large networks keep full per-state coverage but a smaller
			// query set, so the fresh rebuild per (state, pair) stays
			// affordable.
			maxQueries := 5
			if sc.Net.N() > 8 {
				maxQueries = 3
			}
			eng := bounds.NewNetworkEngine(sc.Net)
			for runIdx, policy := range []sim.Policy{nil, sim.NewRandom(int64(7 * sc.Net.N()))} {
				r, err := sc.Simulate(policy)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				procs := sc.Net.Procs()
				observers := map[model.ProcID]bool{
					procs[runIdx%len(procs)]:                true,
					procs[(runIdx+len(procs)/2)%len(procs)]: true,
				}
				shared := eng.NewRun()
				handles := make(map[model.ProcID]*bounds.Handle)
				d := newStateWalker(t, r, observers)
				for {
					p, k, v, ok := d.step(t)
					if !ok {
						break
					}
					h := handles[p]
					if h == nil {
						h = mustHandle(t, shared, v)
						handles[p] = h
					}
					tag := fmt.Sprintf("%s run %d p%d#%d", name, runIdx, p, k)
					diffAgainstFresh(t, tag, h, v, maxQueries)
				}
				for _, h := range handles {
					h.Release()
				}
			}
		})
	}
}

// TestNetworkEngineRunIsolation interleaves the INCREMENTAL growth of two
// runs stamped out of ONE engine, one state at a time: run A absorbs a
// state and answers, then run B does, alternating — so per-run standing
// material (node vertices, delivery edges, chain vertices appended to the
// cloned aux adjacency and rolled back) mutates between every sync of the
// sibling run. Answers must keep matching fresh builds of each agent's own
// view at every interleaved step.
func TestNetworkEngineRunIsolation(t *testing.T) {
	sc := scenario.MultiAgent(2)
	eng := bounds.NewNetworkEngine(sc.Net)
	observers := map[model.ProcID]bool{sc.Tasks[0].B: true, sc.Tasks[1].B: true}
	type runState struct {
		d       *stateWalker
		shared  *bounds.Shared
		handles map[model.ProcID]*bounds.Handle
	}
	runs := make([]*runState, 2)
	for i := range runs {
		r, err := sc.Simulate(sim.NewRandom(int64(3 + i)))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = &runState{
			d:       newStateWalker(t, r, observers),
			shared:  eng.NewRun(),
			handles: make(map[model.ProcID]*bounds.Handle),
		}
	}
	for live := 2; live > 0; {
		live = 0
		for i, rs := range runs {
			p, k, v, ok := rs.d.step(t)
			if !ok {
				continue
			}
			live++
			h := rs.handles[p]
			if h == nil {
				h = mustHandle(t, rs.shared, v)
				rs.handles[p] = h
			}
			tag := fmt.Sprintf("interleave run %d p%d#%d", i, p, k)
			diffAgainstFresh(t, tag, h, v, 4)
		}
	}
}

// TestNetworkEngineAllocationGuard pins the amortization the network tier
// buys: stamping a run out of a prebuilt engine (NewRun) must allocate
// strictly less than deriving the whole engine per run (NewNetworkEngine +
// NewRun, as a private one-handle engine does) — the aux band prototype is cloned in O(1)
// allocations and the hint tables are shared, not rebuilt.
func TestNetworkEngineAllocationGuard(t *testing.T) {
	net := model.MustComplete(6, 1, 5)
	eng := bounds.NewNetworkEngine(net)
	perRun := testing.AllocsPerRun(100, func() {
		if eng.NewRun() == nil {
			t.Fatal("no run")
		}
	})
	fresh := testing.AllocsPerRun(100, func() {
		if bounds.NewNetworkEngine(net).NewRun() == nil {
			t.Fatal("no engine")
		}
	})
	if perRun >= fresh {
		t.Errorf("NewRun allocates %.0f times per run, fresh engine + NewRun %.0f — the network tier amortizes nothing", perRun, fresh)
	}
	// The run stamp itself must stay O(1) in the network: struct, frontier
	// tables, coordinate copies and a constant-allocation graph clone.
	const limit = 10
	if perRun > limit {
		t.Errorf("NewRun allocates %.0f times per run, want <= %d", perRun, limit)
	}
}

// mustHandle subscribes a view to a shared engine, failing the test on the
// (programmer-error) network-mismatch path.
func mustHandle(tb testing.TB, s *bounds.Shared, v *run.View) *bounds.Handle {
	tb.Helper()
	h, err := s.NewHandle(v)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}
