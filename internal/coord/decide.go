package coord

import (
	"errors"
	"math"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/run"
)

// errDifferentView reports a Decider fed another view than its handle's.
var errDifferentView = errors.New("coord: decider observed a different view than its engine was built on")

// Verdict is where a Decider's decision stands after a state.
type Verdict int

// The verdicts of Decider.Step.
const (
	Open    Verdict = iota // some threshold may still be decided later
	Decided                // every threshold is decided
	Settled                // no open threshold can ever be decided
)

// XDecision records, for one threshold, the first state at which the
// required precedence became known. Node is that state on B's timeline;
// the rule is clockless, so callers read the act time from the recording
// (run.Run.Time), never from the decider.
type XDecision struct {
	Decided bool
	Node    run.BasicNode
}

// Decider is Protocol 2's decision rule for B, fed B's view one state at a
// time; RunOptimal drives it offline and live.Protocol2 online. It reads
// no clock. From the first state whose view holds σ_C (C's earliest go
// node, as Task.Wire resolves it), one query kw(θ1, θ2) on GE(r, σ) — θ1 =
// a's chain node σ_C·A and θ2 = σ for Late, the reverse for Early —
// answers every threshold: by Theorem 4 σ knows the precedence at x iff
// kw >= x, so the state where x first holds is where Protocol 2 with
// Task.X = x acts. The thresholds are Xs when non-empty, else Task.X (kept
// in arrays inside the decider, so a plain decider allocates nothing). The
// decision ends Decided once every threshold is, and Settled at the first
// state where Task.Settled holds for the lowest undecided one.
//
// Queries go through one bounds.Handle, subscribed on the first query to
// Shared when set, else to a private one-handle run, so each state pays
// only for the view's growth. Rebuild (with no Shared) answers from a
// fresh bounds.NewExtendedFromView per state instead, the baseline the
// handle is tested against; every configuration answers as a fresh build.
type Decider struct {
	Task    Task
	Xs      []int
	Shared  *bounds.Shared
	Rebuild bool

	// aNode is fixed once σ_C enters the view; xs is nil until then.
	aNode          run.GeneralNode
	theta1, theta2 run.GeneralNode
	kw             int
	handle         *bounds.Handle

	xs       []int
	xDecided []XDecision
	xLeft    int
	holds    []bool
	oneX     [1]int
	oneD     [1]XDecision
	oneH     [1]bool
}

// knower is the query surface of the incremental *bounds.Handle and of the
// rebuild baseline's *bounds.Extended.
type knower interface {
	KnowsAt(theta1 run.GeneralNode, xs []int, theta2 run.GeneralNode, holds []bool) (kw int, known bool, err error)
}

// Step feeds the decider the same view, advanced to B's next state, and
// stamps that state on every newly holding threshold. After Decided or
// Settled it has released its handle, and callers stop.
func (d *Decider) Step(v *run.View) (Verdict, error) {
	if d.xs == nil {
		sigmaC, ok := v.FindExternal(d.Task.C, d.Task.label())
		if !ok {
			return Open, nil // C's go node is not yet in B's past
		}
		d.aNode = run.At(sigmaC).Hop(d.Task.A)
		if len(d.Xs) > 0 {
			d.xs = d.Xs
			d.xDecided = make([]XDecision, len(d.Xs))
			d.holds = make([]bool, len(d.Xs))
		} else {
			d.oneX[0] = d.Task.X
			d.xs, d.xDecided, d.holds = d.oneX[:], d.oneD[:], d.oneH[:]
		}
		d.xLeft = len(d.xs)
	}
	if d.settled(v) {
		d.Release()
		return Settled, nil
	}
	sigma := run.At(v.Origin())
	d.theta1, d.theta2 = d.aNode, sigma
	if d.Task.Kind != Late {
		d.theta1, d.theta2 = sigma, d.aNode
	}
	eng, err := d.engine(v)
	if err == nil {
		d.kw, _, err = eng.KnowsAt(d.theta1, d.xs, d.theta2, d.holds)
	}
	if err != nil {
		return Open, err
	}
	for i := range d.xs {
		if !d.xDecided[i].Decided && d.holds[i] {
			d.xDecided[i] = XDecision{Decided: true, Node: v.Origin()}
			d.xLeft--
		}
	}
	if d.xLeft > 0 {
		return Open, nil
	}
	d.Release()
	return Decided, nil
}

// settled reports whether Task.Settled holds at v for the lowest undecided
// threshold, and so for every higher one.
func (d *Decider) settled(v *run.View) bool {
	task := d.Task
	task.X = math.MaxInt
	for i, x := range d.xs {
		if !d.xDecided[i].Decided && x < task.X {
			task.X = x
		}
	}
	return task.Settled(v, d.aNode)
}

// engine resolves the engine serving this state: a fresh build for the
// rebuild baseline, otherwise the handle, subscribed on first use.
func (d *Decider) engine(v *run.View) (knower, error) {
	if d.Rebuild && d.Shared == nil {
		return bounds.NewExtendedFromView(v)
	}
	if d.handle == nil {
		s := d.Shared
		if s == nil {
			s = bounds.NewNetworkEngine(v.Net()).NewRun()
		}
		h, err := s.NewHandle(v)
		if err != nil {
			return nil, err
		}
		d.handle = h
	} else if d.handle.View() != v {
		return nil, errDifferentView // it would answer stale
	}
	return d.handle, nil
}

// Query returns the pair the latest state asked about and the knowledge
// weight it got: at the state that returned Decided, the bound B knew.
func (d *Decider) Query() (theta1, theta2 run.GeneralNode, kw int) {
	return d.theta1, d.theta2, d.kw
}

// XDecisions returns the per-threshold decisions, indexed like Xs, or one
// entry for Task.X when Xs is empty; nil before σ_C enters the view.
func (d *Decider) XDecisions() []XDecision { return d.xDecided }

// Release returns the handle's leased scratch to its engine, for a caller
// that stops before the decision ends. Releasing again is harmless.
func (d *Decider) Release() {
	if d.handle != nil {
		d.handle.Release()
	}
}

// Stats returns the handle's knowledge-query counters (zero for the rebuild
// baseline). They survive Release.
func (d *Decider) Stats() bounds.EngineStats {
	if d.handle != nil {
		return d.handle.Stats()
	}
	return bounds.EngineStats{}
}
