package run_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestAdvanceMatchesViewOf walks every process of every registry run, under
// every default policy, from its initial node to its last one with
// View.Advance, and checks the walked view against a fresh ViewOf at each
// state. Past the last node Advance must fail with ErrNoNode and leave the
// view as it was.
func TestAdvanceMatchesViewOf(t *testing.T) {
	for _, sc := range scenario.All(scenario.Registry(0)) {
		for _, pol := range sweep.DefaultPolicies() {
			r, err := sc.Simulate(pol.New(1))
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, pol.Name, err)
			}
			for _, p := range r.Net().Procs() {
				walked, err := run.ViewOf(r, run.BasicNode{Proc: p})
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= r.LastIndex(p); k++ {
					sigma, err := walked.Advance(r)
					if err != nil {
						t.Fatalf("%s/%s: advance to p%d#%d: %v", sc.Name, pol.Name, p, k, err)
					}
					if want := (run.BasicNode{Proc: p, Index: k}); sigma != want || walked.Origin() != want {
						t.Fatalf("%s/%s: advanced to %s (origin %s), want %s", sc.Name, pol.Name, sigma, walked.Origin(), want)
					}
					fresh, err := run.ViewOf(r, sigma)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameView(r, walked, fresh); err != "" {
						t.Fatalf("%s/%s at %s: %s", sc.Name, pol.Name, sigma, err)
					}
				}
				before, err := run.ViewOf(r, walked.Origin())
				if err != nil {
					t.Fatal(err)
				}
				count := len(walked.Deliveries())
				if _, err := walked.Advance(r); !errors.Is(err, run.ErrNoNode) {
					t.Fatalf("%s/%s: advance past p%d's last node: %v, want ErrNoNode", sc.Name, pol.Name, p, err)
				}
				if !walked.Equal(before) || len(walked.Deliveries()) != count ||
					walked.Origin() != (run.BasicNode{Proc: p, Index: r.LastIndex(p)}) {
					t.Fatalf("%s/%s: failed advance changed p%d's view", sc.Name, pol.Name, p)
				}
			}
		}
	}
}

// sameView compares two views of one run on everything the knowledge
// engines read, and describes the first difference ("" if none).
func sameView(r *run.Run, got, want *run.View) string {
	for _, p := range r.Net().Procs() {
		gb, gok := got.Boundary(p)
		wb, wok := want.Boundary(p)
		if gb != wb || gok != wok {
			return fmt.Sprintf("boundary of p%d: %v %v, want %v %v", p, gb, gok, wb, wok)
		}
	}
	deliveries := want.Deliveries()
	if !reflect.DeepEqual(got.Deliveries(), deliveries) {
		return fmt.Sprintf("%d deliveries, want %d", len(got.Deliveries()), len(deliveries))
	}
	for _, d := range deliveries {
		if to, ok := got.DeliveryTo(d.From, d.To.Proc); !ok || to != d.To {
			return fmt.Sprintf("DeliveryTo(%s, %d) = %s %v, want %s", d.From, d.To.Proc, to, ok, d.To)
		}
	}
	leaving := want.Leaving()
	if !reflect.DeepEqual(got.Leaving(), leaving) {
		return "Leaving differs"
	}
	for _, pd := range leaving {
		if _, ok := got.DeliveryTo(pd.From, pd.To); ok {
			return fmt.Sprintf("DeliveryTo sees the leaving message %s->%d", pd.From, pd.To)
		}
	}
	for _, e := range r.Externals() {
		if g, w := got.ExternalsAt(e.To), want.ExternalsAt(e.To); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("ExternalsAt(%s) = %v, want %v", e.To, g, w)
		}
		for _, p := range r.Net().Procs() {
			gn, gok := got.FindExternal(p, e.Label)
			wn, wok := want.FindExternal(p, e.Label)
			if gn != wn || gok != wok {
				return fmt.Sprintf("FindExternal(%d, %q) = %s %v, want %s %v", p, e.Label, gn, gok, wn, wok)
			}
		}
	}
	return ""
}

// TestAdvanceAllocationFlat: a view's walk reuses its own buffers, so
// walking an agent's timeline allocates a constant number of times —
// ViewOf's and the first Advance's — however many states the walk covers.
// The timeline is coord-heavy-m16's first agent under the heavy-tail
// policy, over two thousand states.
func TestAdvanceAllocationFlat(t *testing.T) {
	sc := scenario.MultiAgentHeavy(16)
	r, err := sc.Simulate(sim.NewHeavyTail(1))
	if err != nil {
		t.Fatal(err)
	}
	b := sc.Tasks[0].B
	last := r.LastIndex(b)
	if last < 2000 {
		t.Fatalf("timeline has %d states, want a long one", last)
	}
	walk := func(states int) float64 {
		return testing.AllocsPerRun(3, func() {
			v, err := run.ViewOf(r, run.BasicNode{Proc: b})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < states; k++ {
				if _, err := v.Advance(r); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short, full := walk(10), walk(last)
	if short != full || full > 8 {
		t.Fatalf("walking 10 states allocates %.0f times, all %d states %.0f: want the same small count", short, last, full)
	}
}
