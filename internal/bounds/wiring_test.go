package bounds_test

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// standingEdges is the edge count a standing graph over the union
// frontier must hold when every delivery is wired exactly once: one E”'
// edge per channel, one successor edge per non-initial absorbed node and
// one lower/upper pair per delivery into an absorbed node. Parallel copies
// of a delivery pair never change a longest path, so no differential test
// can see them; this count does.
func standingEdges(r *run.Run, union []int) int {
	edges := len(r.Net().Arcs())
	for _, k := range union {
		edges += max(k, 0)
	}
	for _, d := range r.Deliveries() {
		if d.To.Index <= union[d.To.Proc-1] {
			edges += 2
		}
	}
	return edges
}

// newUnion returns an empty union frontier over n processes.
func newUnion(n int) []int {
	union := make([]int, n)
	for i := range union {
		union[i] = -1
	}
	return union
}

// cover raises union to cover the view's frontier.
func cover(union []int, v *run.View) {
	for q := range union {
		if b, ok := v.Boundary(model.ProcID(q + 1)); ok {
			union[q] = max(union[q], b.Index)
		}
	}
}

// driveToEnd subscribes one handle per observer to shared, syncs each at
// every observer state in run order, asks each one chain-crossing query
// at its final state (so speculative chain vertices come and go), and
// raises union to cover the final views.
func driveToEnd(t *testing.T, shared *bounds.Shared, r *run.Run, observers map[model.ProcID]bool, union []int) {
	t.Helper()
	handles := make(map[model.ProcID]*bounds.Handle)
	d := newStateWalker(t, r, observers)
	for {
		p, _, v, ok := d.step(t)
		if !ok {
			break
		}
		if handles[p] == nil {
			handles[p] = mustHandle(t, shared, v)
		}
		if err := handles[p].Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for p, h := range handles {
		v := h.View()
		qs := registryQueryNodes(v, 2)
		if _, _, err := h.KnowledgeWeight(qs[len(qs)-1], qs[0]); err != nil {
			t.Fatalf("p%d final query: %v", p, err)
		}
		cover(union, v)
		h.Release()
	}
}

// TestStandingGraphHoldsEachDeliveryOnce drives several handles of one run
// to their final states and counts the standing edges, on a freshly grown
// run and on a run stamped from the frozen prefix of the first (driven by
// other observers, so it absorbs more on top of the prefix).
func TestStandingGraphHoldsEachDeliveryOnce(t *testing.T) {
	for _, sc := range []*scenario.Scenario{scenario.MultiAgent(4), scenario.MultiAgentEarly(2)} {
		r, err := sc.Simulate(sim.NewRandom(11))
		if err != nil {
			t.Fatal(err)
		}
		procs := sc.Net.Procs()
		eng := bounds.NewNetworkEngine(sc.Net)
		union := newUnion(sc.Net.N())

		flat, _ := eng.NewRunAt(r.Fingerprint())
		driveToEnd(t, flat, r, map[model.ProcID]bool{procs[0]: true, procs[1]: true, procs[len(procs)/2]: true}, union)
		if got, want := flat.NumEdges(), standingEdges(r, union); got != want {
			t.Fatalf("%s flat: %d standing edges, want %d", sc.Name, got, want)
		}
		if !flat.CommitPrefix() {
			t.Fatalf("%s: nothing committed", sc.Name)
		}

		stamped, hit := eng.NewRunAt(r.Fingerprint())
		if !hit {
			t.Fatalf("%s: committed prefix missed", sc.Name)
		}
		if got, want := stamped.NumEdges(), standingEdges(r, union); got != want {
			t.Fatalf("%s stamped: %d standing edges before any sync, want %d", sc.Name, got, want)
		}
		driveToEnd(t, stamped, r, map[model.ProcID]bool{procs[len(procs)-1]: true, procs[len(procs)-2]: true}, union)
		if got, want := stamped.NumEdges(), standingEdges(r, union); got != want {
			t.Fatalf("%s stamped: %d standing edges, want %d", sc.Name, got, want)
		}
	}
}

// TestWideHubMatchesFreshBuild runs a star whose hub has 65 out-arcs, past
// the 64 that fit one machine word of per-channel bits, and checks the
// hub's and two leaves' handles against fresh builds at every state, and
// the standing graph's edge count at the end.
func TestWideHubMatchesFreshBuild(t *testing.T) {
	const leaves = 65
	b := model.NewBuilder(leaves + 1)
	for q := model.ProcID(2); q <= leaves+1; q++ {
		b.BiChan(1, q, 1, 3)
	}
	net := b.MustBuild()
	if len(net.OutArcs(1)) <= 64 {
		t.Fatalf("hub has %d out-arcs, want more than 64", len(net.OutArcs(1)))
	}
	r, err := sim.Simulate(sim.Config{
		Net: net, Horizon: 9, Policy: sim.NewRandom(3),
		Externals: []run.ExternalEvent{{Proc: 1, Time: 1, Label: "go"}, {Proc: leaves + 1, Time: 2, Label: "go"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	observers := map[model.ProcID]bool{1: true, 2: true, leaves + 1: true}
	shared := bounds.NewNetworkEngine(net).NewRun()
	handles := make(map[model.ProcID]*bounds.Handle)
	d := newStateWalker(t, r, observers)
	states := 0
	for {
		p, k, v, ok := d.step(t)
		if !ok {
			break
		}
		if handles[p] == nil {
			handles[p] = mustHandle(t, shared, v)
		}
		diffAgainstFresh(t, fmt.Sprintf("hub p%d#%d", p, k), handles[p], v, 3)
		states++
	}
	if states < 2*len(observers) {
		t.Fatalf("only %d observer states: the hub never got busy", states)
	}
	union := newUnion(net.N())
	for _, h := range handles {
		cover(union, h.View())
	}
	if got, want := shared.NumEdges(), standingEdges(r, union); got != want {
		t.Fatalf("hub: %d standing edges, want %d", got, want)
	}
}
