package coord

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
)

// Outcome reports how a protocol for B fared on one run.
type Outcome struct {
	// Acted reports whether B performed b within the horizon.
	Acted bool
	// ActNode is B's local state when it acted.
	ActNode run.BasicNode
	// ActTime is when it acted.
	ActTime model.Time
	// ATime is when a was performed.
	ATime model.Time
	// Gap is ActTime - ATime: >= X certifies Late, <= -X certifies Early.
	Gap int
	// KnownBound is the knowledge weight at the action node (optimal
	// protocol only): the strongest bound B knew when acting.
	KnownBound int
	// Witness is the sigma-visible zigzag justifying the action (optimal
	// protocol only).
	Witness *pattern.Visible
	// NodesExamined counts B's local states inspected before acting: every
	// state from (B, 1) through the acting state, or through B's last state
	// when B never acts. The meaning does not depend on how the states are
	// evaluated.
	NodesExamined int
}

// RunOptimal executes Protocol 2 for B offline over a recorded run: it
// scans B's local states in order and acts at the first state sigma that
// recognizes sigma_C and knows the required precedence — computed, per
// Theorem 4, as a knowledge-weight query on GE(r, sigma). The returned
// outcome carries the witnessing sigma-visible zigzag.
//
// The scan is exactly what an online B would do: everything consulted is
// inside past(r, sigma). It walks B's timeline once: one view, advanced a
// state at a time (run.View.Advance), feeds one bounds.Handle on a private
// one-handle run — the engine live.Protocol2 uses by default — so each
// state costs only its delta over the previous one. The scan stops at the
// first state where the decision is settled (Task.Settled: an Early task
// whose target a is already in B's past), since no later state can act.
// The witness is
// extracted once, at the acting state, from a fresh GE(r, sigma) whose
// knowledge weight must equal the handle's. An inconsistent GE(r, sigma)
// surfaces as an error wrapping graph.ErrPositiveCycle.
func (t Task) RunOptimal(r *run.Run) (*Outcome, error) {
	return t.runOptimal(r, bounds.NewNetworkEngine(r.Net()))
}

// runOptimal is RunOptimal with the handle's network engine supplied, so
// tests can observe that the handle is released on every return path.
func (t Task) runOptimal(r *run.Run, eng *bounds.NetworkEngine) (*Outcome, error) {
	w, err := t.Wire(r)
	if err != nil {
		return nil, err
	}
	out := &Outcome{ATime: w.ATime}
	view, err := run.ViewOf(r, run.BasicNode{Proc: t.B, Index: 0})
	if err != nil {
		return nil, err
	}
	h, err := eng.NewRun().NewHandle(view)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	for k := 1; k <= r.LastIndex(t.B); k++ {
		sigma, err := view.Advance(r)
		if err != nil {
			return nil, err
		}
		out.NodesExamined++
		if !view.Contains(w.SigmaC) {
			continue // B has not heard (transitively) from sigma_C yet
		}
		if t.Settled(view, w.ANode) {
			// No later state can know the precedence: B never acts.
			out.NodesExamined = r.LastIndex(t.B)
			return out, nil
		}
		var theta1, theta2 run.GeneralNode
		if t.Kind == Late {
			theta1, theta2 = w.ANode, run.At(sigma)
		} else {
			theta1, theta2 = run.At(sigma), w.ANode
		}
		kw, known, err := h.KnowledgeWeight(theta1, theta2)
		if err != nil {
			return nil, err
		}
		if !known || kw < t.X {
			continue
		}
		// Handles answer weights only: the witness comes from one fresh
		// GE(r, sigma) at the acting state, which must agree on kw.
		ext, err := bounds.NewExtended(r, sigma)
		if err != nil {
			return nil, err
		}
		witness, fresh, known, err := pattern.KnowledgeWitness(ext, theta1, theta2)
		if err != nil {
			return nil, err
		}
		if !known || fresh != kw {
			return nil, fmt.Errorf("coord: knowledge weight at %s: handle %d, fresh build %d (known %v)",
				sigma, kw, fresh, known)
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

// RunBaseline executes the asynchronous-reasoning baseline for B: it uses
// only happened-before information (message chains and their lower bounds),
// never upper bounds — the best any protocol can do in Lamport's
// asynchronous model, transplanted to bcm.
//
// For Late, B acts at the first state sigma such that a's node is in
// past(r, sigma) and the heaviest forward chain a -> sigma has total lower
// bound >= X. For Early, the baseline never acts (without upper bounds
// nothing guarantees that a future event is at least x away).
func (t Task) RunBaseline(r *run.Run) (*Outcome, error) {
	w, err := t.Wire(r)
	if err != nil {
		return nil, err
	}
	out := &Outcome{ATime: w.ATime}
	if t.Kind == Early {
		return out, nil
	}
	for k := 1; k <= r.LastIndex(t.B); k++ {
		sigma := run.BasicNode{Proc: t.B, Index: k}
		out.NodesExamined++
		ps, err := run.ViewOf(r, sigma)
		if err != nil {
			return nil, err
		}
		if !ps.Contains(w.ABasic) {
			continue
		}
		bound, err := causalLowerBound(r, ps, w.ABasic, sigma)
		if err != nil {
			return nil, err
		}
		if bound < t.X {
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
		out.KnownBound = bound
		return out, t.checkSpec(out)
	}
	return out, nil
}

// checkSpec audits an action against the specification: the realized gap in
// the actual run must satisfy the bound (soundness re-check against ground
// truth the protocols never saw).
func (t Task) checkSpec(out *Outcome) error {
	if !out.Acted {
		return nil
	}
	switch t.Kind {
	case Late:
		if out.Gap < t.X {
			return fmt.Errorf("%w: Late gap %d < x=%d", ErrSpecViolated, out.Gap, t.X)
		}
	case Early:
		if -out.Gap < t.X {
			return fmt.Errorf("%w: Early lead %d < x=%d", ErrSpecViolated, -out.Gap, t.X)
		}
	}
	return nil
}

// causalLowerBound computes the heaviest happened-before chain from src to
// dst using only forward edges (successor steps of weight 1 and message
// deliveries at their lower bound), restricted to past(r, dst). This is all
// the timing an asynchronous reasoner can certify.
func causalLowerBound(r *run.Run, ps *run.View, src, dst run.BasicNode) (int, error) {
	// Map past nodes to dense vertices.
	nodes := ps.Nodes()
	index := make(map[run.BasicNode]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	g := graphForward(r, nodes, index)
	u, okU := index[src]
	v, okV := index[dst]
	if !okU || !okV {
		return 0, fmt.Errorf("coord: causal bound endpoints outside past")
	}
	dist, err := g.Longest(u)
	if err != nil {
		return 0, err
	}
	if dist[v] == negInf {
		return 0, fmt.Errorf("coord: %s not causally before %s despite past membership", src, dst)
	}
	return int(dist[v]), nil
}
