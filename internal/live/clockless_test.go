package live

import (
	"fmt"
	"slices"
	"testing"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// viewGuard is an agent that checks, at every state of its process, that the
// live view — a frontier over the run the stepper is recording, which holds
// more than the view may see — answers every accessor exactly as the
// view extracted offline from the recorded run, and never reveals a time.
type viewGuard struct {
	r   *run.Run
	err error
	// Counts of the boundary cases the comparison exercised: deliveries
	// recorded beyond the frontier (DeliveryTo must say no) and labels the
	// process absorbs only later (FindExternal must say no).
	beyond, later int
}

func (g *viewGuard) OnState(v *run.View, _ []string) []string {
	if g.err == nil {
		g.err = g.check(v)
	}
	return nil
}

func (g *viewGuard) check(live *run.View) error {
	at := live.Origin()
	want, err := run.ViewOf(g.r, at)
	if err != nil {
		return err
	}
	net := g.r.Net()
	if live.Size() != want.Size() {
		return fmt.Errorf("%s: size %d, want %d", at, live.Size(), want.Size())
	}
	for _, p := range net.Procs() {
		gb, gok := live.Boundary(p)
		wb, wok := want.Boundary(p)
		if gb != wb || gok != wok {
			return fmt.Errorf("%s: boundary of p%d %v %v, want %v %v", at, p, gb, gok, wb, wok)
		}
		next := run.BasicNode{Proc: p, Index: wb.Index + 1}
		if !wok {
			next.Index = 0
		}
		if live.Contains(next) || want.Contains(next) || wok && !live.Contains(wb) {
			return fmt.Errorf("%s: Contains disagrees around p%d's boundary", at, p)
		}
		if !wok {
			continue
		}
		gi, wi := live.AppendInbox(nil, wb), want.AppendInbox(nil, wb)
		if !slices.Equal(gi, wi) {
			return fmt.Errorf("%s: inbox of %s = %v, want %v", at, wb, gi, wi)
		}
		for _, a := range net.OutArcs(p) {
			for _, b := range net.OutArcs(a.To) {
				theta := run.Via(wb, model.Path{p, a.To, b.To})
				gp, gh := live.ResolvePrefix(theta)
				wp, wh := want.ResolvePrefix(theta)
				if gh != wh || !slices.Equal(gp, wp) {
					return fmt.Errorf("%s: ResolvePrefix(%s) = %v %d, want %v %d", at, theta, gp, gh, wp, wh)
				}
			}
		}
	}

	// Deliveries and Leaving partition the covered senders' out-arcs, so
	// together they drive DeliveryTo over every covered node and out-arc.
	deliveries, leaving := want.Deliveries(), want.Leaving()
	if got := live.Deliveries(); !slices.Equal(got, deliveries) {
		return fmt.Errorf("%s: %d deliveries, want %d", at, len(got), len(deliveries))
	}
	if got := live.Leaving(); !slices.Equal(got, leaving) {
		return fmt.Errorf("%s: %d leaving messages, want %d", at, len(got), len(leaving))
	}
	for _, d := range deliveries {
		if d.SendTime != 0 || d.RecvTime != 0 {
			return fmt.Errorf("%s: delivery %v carries a time", at, d)
		}
		if to, ok := live.DeliveryTo(d.From, d.To.Proc); !ok || to != d.To {
			return fmt.Errorf("%s: DeliveryTo(%s, %d) = %v %v, want %v", at, d.From, d.To.Proc, to, ok, d.To)
		}
	}
	for _, pd := range leaving {
		if to, ok := live.DeliveryTo(pd.From, pd.To); ok {
			return fmt.Errorf("%s: DeliveryTo(%s, %d) = %v, want none", at, pd.From, pd.To, to)
		}
		if _, ok := g.r.DeliveryFrom(pd.From, pd.To); ok {
			g.beyond++
		}
	}

	// Externals everywhere in the run: labels at covered nodes must match,
	// and nodes and labels beyond the frontier must not be found.
	for _, e := range g.r.Externals() {
		if gl, wl := live.ExternalsAt(e.To), want.ExternalsAt(e.To); !slices.Equal(gl, wl) {
			return fmt.Errorf("%s: ExternalsAt(%s) = %v, want %v", at, e.To, gl, wl)
		}
		for _, p := range net.Procs() {
			gn, gok := live.FindExternal(p, e.Label)
			wn, wok := want.FindExternal(p, e.Label)
			if gn != wn || gok != wok {
				return fmt.Errorf("%s: FindExternal(%d, %q) = %v %v, want %v %v", at, p, e.Label, gn, gok, wn, wok)
			}
			if !gok && p == e.To.Proc {
				g.later++
			}
		}
	}
	return nil
}

// TestLiveViewAccessorsMatchOffline is the clockless guard of views over
// a growing run: on every registry scenario at the full multi-agent ceiling,
// under the eager, a seeded uniform and a seeded heavy-tailed policy, plus
// one fault-injected chaos cell, every view accessor of every process at
// every state answers exactly as ViewOf on the recorded run — including the
// negative answers for deliveries and externals the run already holds
// beyond the view's frontier.
func TestLiveViewAccessorsMatchOffline(t *testing.T) {
	type cell struct {
		sc     *scenario.Scenario
		name   string
		policy func() sim.Policy
		plan   *faults.Plan
	}
	var cells []cell
	policies := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"eager", func() sim.Policy { return sim.Eager{} }},
		{"random", func() sim.Policy { return sim.NewRandom(17) }},
		{"heavy", func() sim.Policy { return sim.NewHeavyTail(17) }},
	}
	for _, sc := range scenario.All(scenario.RegistrySized(0, 16)) {
		for _, pol := range policies {
			cells = append(cells, cell{sc: sc, name: pol.name, policy: pol.mk})
		}
	}
	chaos := scenario.MultiAgentFaulty(4, faults.FamilyChaos)
	plan, err := faults.NewPlan(chaos.FaultFamily, chaos.Net, chaos.Horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{sc: chaos, name: "random", policy: policies[1].mk, plan: plan})

	// coord-early-mN records coord-mN's run (agents only act), so each
	// distinct run is guarded once; the cells then run in parallel.
	type guarded struct {
		cell
		r             *run.Run
		beyond, later int
	}
	var runs []*guarded
	seen := make(map[uint64]bool)
	for _, c := range cells {
		r, err := sim.Simulate(sim.Config{
			Net: c.sc.Net, Horizon: c.sc.Horizon, Policy: c.policy(),
			Externals: c.sc.Externals, Faults: c.plan,
		})
		if err != nil {
			t.Fatalf("%s/%s: simulate: %v", c.sc.Name, c.name, err)
		}
		if !seen[r.Fingerprint()] {
			seen[r.Fingerprint()] = true
			runs = append(runs, &guarded{cell: c, r: r})
		}
	}
	t.Run("runs", func(t *testing.T) {
		for _, gr := range runs {
			gr := gr
			t.Run(gr.sc.Name+"/"+gr.name, func(t *testing.T) {
				t.Parallel()
				guards := make(map[model.ProcID]Agent, gr.sc.Net.N())
				var all []*viewGuard
				for _, p := range gr.sc.Net.Procs() {
					g := &viewGuard{r: gr.r}
					guards[p] = g
					all = append(all, g)
				}
				res, err := Replay(Config{
					Net: gr.sc.Net, Horizon: gr.sc.Horizon, Policy: gr.policy(),
					Externals: gr.sc.Externals, Agents: guards, Faults: gr.plan,
				})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if res.Run.Fingerprint() != gr.r.Fingerprint() {
					t.Fatal("replay recorded another run than the simulator")
				}
				for _, g := range all {
					if g.err != nil {
						t.Fatal(g.err)
					}
					gr.beyond += g.beyond
					gr.later += g.later
				}
			})
		}
	})
	beyond, later := 0, 0
	for _, gr := range runs {
		beyond += gr.beyond
		later += gr.later
	}
	if beyond == 0 || later == 0 {
		t.Fatalf("guard never met a delivery (%d) or a label (%d) beyond a frontier", beyond, later)
	}
}
