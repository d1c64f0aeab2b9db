// Package coord implements the paper's timed coordination tasks
// (Definition 1) and their solutions:
//
//   - Late<a --x--> b>: B performs b at least x time units after A performs
//     a; Early<b --x--> a>: B performs b at least x time units before.
//     In both, A acts unconditionally when it receives the "go" message
//     that C sends upon a spontaneous external input, and B may act only
//     in runs where a is performed.
//   - Protocol 2, the knowledge-optimal protocol for B: act at the first
//     local state sigma that recognizes C's send node and knows the
//     required timed precedence — equivalently (Theorem 4), at the first
//     sigma from which a sigma-visible zigzag pattern of sufficient weight
//     exists.
//   - An asynchronous baseline that reasons with happened-before only
//     (message-chain lower bounds, no upper bounds): the strongest protocol
//     available in Lamport's asynchronous model. It solves Late only by
//     waiting for a message chain from a, and can never solve Early.
package coord

import (
	"errors"
	"fmt"
	"slices"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// Kind selects between the two coordination problems of Definition 1.
type Kind int

// The coordination task kinds.
const (
	// Late is Late<a --x--> b>: b at least x after a.
	Late Kind = iota + 1
	// Early is Early<b --x--> a>: b at least x before a.
	Early
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Late:
		return "Late"
	case Early:
		return "Early"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Task is one instance of a coordination problem.
type Task struct {
	Kind Kind
	// X is the required separation in time units (may be negative: a
	// negative bound expresses an upper bound on how much later/earlier).
	X int
	// A performs a upon receiving C's "go" message; B decides when (and
	// whether) to perform b; C spontaneously sends "go" to A.
	A, B, C model.ProcID
	// GoTime is when the external mu_go input reaches C.
	GoTime model.Time
	// GoLabel names the external input (defaults to "go").
	GoLabel string
}

// Errors reported by task evaluation.
var (
	ErrNoGo         = errors.New("coord: C never receives the go input")
	ErrNoA          = errors.New("coord: go message never delivered to A within horizon")
	ErrSpecViolated = errors.New("coord: action violates the task specification")
)

func (t Task) label() string {
	if t.GoLabel == "" {
		return "go"
	}
	return t.GoLabel
}

// Wiring locates the task's fixed points in a run: the node sigma_C at
// which C receives mu_go (and floods, in particular sending "go" to A), the
// general node sigma_C . A at which A receives it and performs a, and a's
// basic node and time.
type Wiring struct {
	SigmaC run.BasicNode
	ANode  run.GeneralNode
	ABasic run.BasicNode
	ATime  model.Time
}

// Wire resolves the task against a run. sigma_C is C's earliest go node,
// the node Protocol 2 finds in B's view (Decider); the task requires it to
// come at GoTime, so a run where it does not fails with ErrNoGo.
func (t Task) Wire(r *run.Run) (*Wiring, error) {
	if n := r.Net().N(); t.B < 1 || int(t.B) > n {
		return nil, fmt.Errorf("%w: task B=%d outside the %d-process network", run.ErrNoNode, t.B, n)
	}
	exts := r.Externals() // in tick order: the first match is the earliest
	i := slices.IndexFunc(exts, func(e run.External) bool { return e.To.Proc == t.C && e.Label == t.label() })
	if i < 0 || exts[i].Time != t.GoTime {
		return nil, fmt.Errorf("%w: C=%d's first %q is not at %d", ErrNoGo, t.C, t.label(), t.GoTime)
	}
	sigmaC := exts[i].To
	if !r.Net().HasChan(t.C, t.A) {
		return nil, fmt.Errorf("coord: no channel C=%d -> A=%d", t.C, t.A)
	}
	aNode := run.At(sigmaC).Hop(t.A)
	aBasic, err := r.Resolve(aNode)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoA, err)
	}
	aTime, err := r.Time(aBasic)
	if err != nil {
		return nil, err
	}
	return &Wiring{SigmaC: sigmaC, ANode: aNode, ABasic: aBasic, ATime: aTime}, nil
}

// Settled reports whether B's decision is settled at a state sigma whose
// view is v: the task is Early with X >= 1 and a's chain node aNode (C's go
// node followed by its hop to A) already resolves inside v. Then aNode
// happens before sigma, so t(aNode) <= t(sigma) <= t(sigma') at this and
// every later state sigma' of B, and the precedence sigma' --X--> aNode
// fails in the actual run; by the soundness of knowledge (Theorem 4) no
// such state knows it, and Protocol 2 never acts. The conclusion holds for
// the knowledge engines even on a run that breaks its bounds: GE(r,
// sigma') contains the causal chain aNode -> sigma' at weight >= 0, so a
// knowledge weight kw >= 1 for sigma' -> aNode would close a positive
// cycle. Decider stops querying at the first state where Settled holds.
// It resolves aNode hop by hop through the view's deliveries and does not
// allocate.
func (t Task) Settled(v *run.View, aNode run.GeneralNode) bool {
	if t.Kind != Early || t.X < 1 || !v.Contains(aNode.Base) {
		return false
	}
	cur := aNode.Base
	for _, p := range aNode.Path[1:] {
		next, ok := v.DeliveryTo(cur, p)
		if !ok {
			return false
		}
		cur = next
	}
	return true
}

// AuditAct checks, after the fact, that performing b at actTime satisfied
// the task specification on the (possibly fault-injected) run that actually
// happened. It is the safety oracle of the chaos sweeps: an agent whose
// knowledge engine is sound never fails the audit, even when the
// environment violated its bounds — a degraded-mode agent withholds instead
// of acting, and an act that did happen was decided strictly before the
// agent's taint frontier, where its view contained honest material only.
func (t Task) AuditAct(r *run.Run, actTime model.Time) error {
	w, err := t.Wire(r)
	if err != nil {
		return fmt.Errorf("%w: b performed but a's wiring failed: %w", ErrSpecViolated, err)
	}
	gap := int(actTime - w.ATime)
	switch t.Kind {
	case Late:
		if gap < t.X {
			return fmt.Errorf("%w: %v requires b >= a+%d, got gap %d (a at %d, b at %d)",
				ErrSpecViolated, t.Kind, t.X, gap, w.ATime, actTime)
		}
	case Early:
		if -gap < t.X {
			return fmt.Errorf("%w: %v requires b <= a-%d, got gap %d (a at %d, b at %d)",
				ErrSpecViolated, t.Kind, t.X, gap, w.ATime, actTime)
		}
	default:
		return fmt.Errorf("coord: unknown task kind %d", int(t.Kind))
	}
	return nil
}

// Simulate runs the task's scenario: the configured network under the given
// policy, with mu_go as the only external input.
func (t Task) Simulate(net *model.Network, policy sim.Policy, horizon model.Time) (*run.Run, error) {
	return sim.Simulate(sim.Config{
		Net:       net,
		Horizon:   horizon,
		Policy:    policy,
		Externals: sim.GoAt(t.C, t.GoTime, t.label()),
	})
}
