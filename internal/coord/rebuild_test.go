package coord

import (
	"errors"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// RebuildOptimal exposes the rebuild-per-state oracle to the external test
// package, whose scenario fixtures this package cannot import.
var RebuildOptimal = Task.rebuildOptimal

// rebuildOptimal is Protocol 2 for B computed the slow, obviously-correct
// way: GE(r, sigma) built from scratch at every one of B's states, with a
// witness-bearing query at each. It shares no incremental machinery with
// RunOptimal (no View.Advance, no bounds.Handle) and serves as its oracle.
func (t Task) rebuildOptimal(r *run.Run) (*Outcome, error) {
	w, err := t.Wire(r)
	if err != nil {
		return nil, err
	}
	out := &Outcome{ATime: w.ATime}
	for k := 1; k <= r.LastIndex(t.B); k++ {
		sigma := run.BasicNode{Proc: t.B, Index: k}
		out.NodesExamined++
		ext, err := bounds.NewExtended(r, sigma)
		if err != nil {
			return nil, err
		}
		if !ext.Past().Contains(w.SigmaC) {
			continue
		}
		var theta1, theta2 run.GeneralNode
		if t.Kind == Late {
			theta1, theta2 = w.ANode, run.At(sigma)
		} else {
			theta1, theta2 = run.At(sigma), w.ANode
		}
		witness, kw, known, err := pattern.KnowledgeWitness(ext, theta1, theta2)
		if err != nil {
			return nil, err
		}
		if !known || kw < t.X {
			continue
		}
		actTime, err := r.Time(sigma)
		if err != nil {
			return nil, err
		}
		out.Acted = true
		out.ActNode = sigma
		out.ActTime = actTime
		out.Gap = actTime - w.ATime
		out.KnownBound = kw
		out.Witness = witness
		return out, t.checkSpec(out)
	}
	return out, nil
}

// refutingRun hand-builds a run whose channel 1 -> 2 delivery breaks its
// upper bound: go reaches C=1 at 1, (1,1)'s message reaches 3 at 4 and
// 3's relay reaches 2 at 8 together with (1,1)'s direct message, which
// should have arrived by 1+4. B=3 learns all of it at (3,2), where the
// lower-bound chain 1 -> 3 -> 2 (weight 6) against the direct upper bound
// (4) is a positive cycle of GE(r, (3,2)). At (3,1) the view is still
// consistent.
func refutingRun(t *testing.T) *run.Run {
	t.Helper()
	net := model.NewBuilder(3).
		Chan(1, 2, 1, 4).Chan(1, 3, 3, 5).Chan(3, 2, 3, 5).Chan(2, 3, 1, 2).
		MustBuild()
	r, err := run.NewBuilder(net, 10).Tolerate().
		External(run.ExternalEvent{Proc: 1, Time: 1, Label: "go"}).
		Message(run.MessageEvent{FromProc: 1, ToProc: 3, SendTime: 1, RecvTime: 4}).
		Message(run.MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 8}).
		Message(run.MessageEvent{FromProc: 3, ToProc: 2, SendTime: 4, RecvTime: 8}).
		Message(run.MessageEvent{FromProc: 2, ToProc: 3, SendTime: 8, RecvTime: 9}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunOptimalKeepsErrors pins RunOptimal's error behaviour on a view
// that refutes a channel bound: like the rebuild oracle, it fails with an
// error wrapping graph.ErrPositiveCycle, for both task kinds. The Early
// case asks x = 0, below the settle rule's reach: at (3,1) the knowledge
// weight is L_12 - U_13 = -4 < 0, so the scan reaches the refuting state.
// An Early task with x >= 1 on the same run settles at (3,2), where a's
// node (2,1) is already in B's past, and never acts without querying the
// refuting view; the rebuild oracle, which keeps scanning, still fails
// there. On every path, and on acting and non-acting runs, the handle's
// scratch goes back to the engine.
func TestRunOptimalKeepsErrors(t *testing.T) {
	r := refutingRun(t)
	for _, task := range []Task{
		{Kind: Late, X: 100, A: 2, B: 3, C: 1, GoTime: 1},
		{Kind: Early, X: 0, A: 2, B: 3, C: 1, GoTime: 1},
	} {
		kind := task.Kind
		if _, err := task.rebuildOptimal(r); !errors.Is(err, graph.ErrPositiveCycle) {
			t.Fatalf("%v: rebuild oracle returned %v, want ErrPositiveCycle", kind, err)
		}
		eng := bounds.NewNetworkEngine(r.Net())
		if _, err := task.runOptimal(r, eng); !errors.Is(err, graph.ErrPositiveCycle) {
			t.Fatalf("%v: RunOptimal returned %v, want ErrPositiveCycle", kind, err)
		}
		if n := eng.Stats().ScratchLeased; n != 0 {
			t.Errorf("%v: %d scratches still leased after the error", kind, n)
		}
	}
	settled := Task{Kind: Early, X: 1, A: 2, B: 3, C: 1, GoTime: 1}
	if _, err := settled.rebuildOptimal(r); !errors.Is(err, graph.ErrPositiveCycle) {
		t.Fatalf("settled Early: rebuild oracle returned %v, want ErrPositiveCycle", err)
	}
	eng := bounds.NewNetworkEngine(r.Net())
	out, err := settled.runOptimal(r, eng)
	if err != nil {
		t.Fatalf("settled Early: RunOptimal returned %v, want a never-acting outcome", err)
	}
	if out.Acted || out.NodesExamined != r.LastIndex(settled.B) {
		t.Errorf("settled Early: acted=%v after %d states, want never acting after %d",
			out.Acted, out.NodesExamined, r.LastIndex(settled.B))
	}
	if n := eng.Stats().ScratchLeased; n != 0 {
		t.Errorf("settled Early: %d scratches still leased", n)
	}

	// Acting and never-acting runs release the handle too.
	chain, err := (Task{C: 1, GoTime: 1}).Simulate(chainNet(t), sim.Lazy{}, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{3, 1000} {
		task := Task{Kind: Late, X: x, A: 2, B: 3, C: 1, GoTime: 1}
		eng := bounds.NewNetworkEngine(chain.Net())
		out, err := task.runOptimal(chain, eng)
		if err != nil {
			t.Fatal(err)
		}
		if out.Acted != (x == 3) {
			t.Errorf("x=%d: acted = %v", x, out.Acted)
		}
		if n := eng.Stats().ScratchLeased; n != 0 {
			t.Errorf("x=%d: %d scratches still leased", x, n)
		}
	}
}
