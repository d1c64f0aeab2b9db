package coord

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// chainNet is C=1 -> A=2 -> B=3: the baseline has a message chain from a.
func chainNet(t *testing.T) *model.Network {
	t.Helper()
	return model.NewBuilder(3).Chan(1, 2, 2, 4).Chan(2, 3, 3, 6).MustBuild()
}

func TestWireLocatesGoAndA(t *testing.T) {
	task := Task{Kind: Late, X: 1, A: 2, B: 3, C: 1, GoTime: 2}
	r, err := task.Simulate(chainNet(t), sim.Eager{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	w, err := task.Wire(r)
	if err != nil {
		t.Fatal(err)
	}
	if w.SigmaC.Proc != 1 || w.SigmaC.Index != 1 {
		t.Errorf("sigmaC = %s", w.SigmaC)
	}
	if w.ATime != 2+2 {
		t.Errorf("aTime = %d, want 4", w.ATime)
	}
	if w.ABasic.Proc != 2 {
		t.Errorf("aBasic = %s", w.ABasic)
	}
}

func TestWireErrors(t *testing.T) {
	task := Task{Kind: Late, X: 1, A: 2, B: 3, C: 1, GoTime: 2}
	net := chainNet(t)
	// No external at all.
	r, err := sim.Simulate(sim.Config{Net: net, Horizon: 30, Policy: sim.Eager{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Wire(r); !errors.Is(err, ErrNoGo) {
		t.Errorf("got %v, want ErrNoGo", err)
	}
	// Missing C -> A channel.
	task2 := Task{Kind: Late, X: 1, A: 3, B: 2, C: 1, GoTime: 2}
	net2 := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).MustBuild()
	r2, err := task2.Simulate(net2, sim.Eager{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task2.Wire(r2); err == nil {
		t.Error("wire without C->A channel succeeded")
	}
	// Horizon too short for the go delivery.
	r3, err := task.Simulate(net, sim.Lazy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Wire(r3); !errors.Is(err, ErrNoA) {
		t.Errorf("got %v, want ErrNoA", err)
	}
	// B outside the network: the error names the task's B and the
	// network's size.
	r4, err := task.Simulate(net, sim.Lazy{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []model.ProcID{0, 4} {
		bad := task
		bad.B = b
		_, err := bad.Wire(r4)
		if !errors.Is(err, run.ErrNoNode) || !strings.Contains(err.Error(), fmt.Sprintf("B=%d outside the 3-process network", b)) {
			t.Errorf("B=%d: got %v, want run.ErrNoNode naming B and the network size", b, err)
		}
	}
}

func TestBaselineActsOnChain(t *testing.T) {
	// Late with x = 3: the chain A -> B certifies L_AB = 3 on receipt.
	task := Task{Kind: Late, X: 3, A: 2, B: 3, C: 1, GoTime: 1}
	r, err := task.Simulate(chainNet(t), sim.Lazy{}, 60)
	if err != nil {
		t.Fatal(err)
	}
	base, err := task.RunBaseline(r)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Acted {
		t.Fatal("baseline never acted despite an A->B chain")
	}
	if base.Gap < 3 {
		t.Errorf("baseline gap %d < 3", base.Gap)
	}
	opt, err := task.RunOptimal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Acted {
		t.Fatal("optimal never acted")
	}
	if opt.ActTime > base.ActTime {
		t.Errorf("optimal (%d) acted after baseline (%d)", opt.ActTime, base.ActTime)
	}
}

func TestBaselineNeverEarly(t *testing.T) {
	task := Task{Kind: Early, X: 1, A: 2, B: 3, C: 1, GoTime: 1}
	net := model.NewBuilder(3).Chan(1, 2, 9, 12).Chan(1, 3, 1, 2).MustBuild()
	r, err := task.Simulate(net, sim.Eager{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	base, err := task.RunBaseline(r)
	if err != nil {
		t.Fatal(err)
	}
	if base.Acted {
		t.Error("baseline solved Early")
	}
	opt, err := task.RunOptimal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Acted {
		t.Error("optimal failed a feasible Early instance")
	}
}

func TestOptimalDominatesBaselineEverywhere(t *testing.T) {
	// Property: wherever the baseline can act, the optimal protocol acts no
	// later — across x values and policies on the chain network.
	for x := 1; x <= 6; x++ {
		task := Task{Kind: Late, X: x, A: 2, B: 3, C: 1, GoTime: 1}
		for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(int64(x))} {
			r, err := task.Simulate(chainNet(t), pol, 80)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := task.RunOptimal(r)
			if err != nil {
				t.Fatal(err)
			}
			base, err := task.RunBaseline(r)
			if err != nil {
				t.Fatal(err)
			}
			if base.Acted && !opt.Acted {
				t.Errorf("x=%d %s: baseline acted, optimal did not", x, pol.Name())
			}
			if base.Acted && opt.Acted && opt.ActTime > base.ActTime {
				t.Errorf("x=%d %s: optimal %d after baseline %d", x, pol.Name(), opt.ActTime, base.ActTime)
			}
		}
	}
}

func TestSpecCheck(t *testing.T) {
	late := Task{Kind: Late, X: 5}
	if err := late.checkSpec(&Outcome{Acted: true, Gap: 4}); !errors.Is(err, ErrSpecViolated) {
		t.Errorf("late gap 4 < 5: %v", err)
	}
	if err := late.checkSpec(&Outcome{Acted: true, Gap: 5}); err != nil {
		t.Errorf("late gap 5: %v", err)
	}
	early := Task{Kind: Early, X: 5}
	if err := early.checkSpec(&Outcome{Acted: true, Gap: -4}); !errors.Is(err, ErrSpecViolated) {
		t.Errorf("early lead 4 < 5: %v", err)
	}
	if err := early.checkSpec(&Outcome{Acted: true, Gap: -5}); err != nil {
		t.Errorf("early lead 5: %v", err)
	}
	if err := late.checkSpec(&Outcome{}); err != nil {
		t.Errorf("non-action audited: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Late.String() != "Late" || Early.String() != "Early" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestNegativeXLate(t *testing.T) {
	// x = -3 expresses "b at most 3 before a" — trivially satisfiable once
	// B knows a will happen: the knowledge bound must still be computed
	// correctly for negative targets.
	task := Task{Kind: Late, X: -3, A: 2, B: 3, C: 1, GoTime: 1}
	r, err := task.Simulate(chainNet(t), sim.Eager{}, 60)
	if err != nil {
		t.Fatal(err)
	}
	out, err := task.RunOptimal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Acted {
		t.Fatal("optimal failed a negative-x instance")
	}
	if out.Gap < -3 {
		t.Errorf("gap %d < -3", out.Gap)
	}
}
