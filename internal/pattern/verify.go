package pattern

import (
	"fmt"

	"github.com/clockless/zigzag/internal/run"
)

// Verify checks that z is a zigzag pattern in r per Definition 6 and that
// the guarantee of Theorem 1 holds numerically in r:
//
//  1. every fork is structurally well-formed and its base, head and tail
//     resolve to basic nodes of r;
//  2. for consecutive forks, head(F_k) and tail(F_{k+1}) correspond to
//     nodes of the same process, with time(head) <= time(tail); they are
//     the same basic node exactly when NonJoined[k] is false;
//  3. time(tail(F_1)) + wt(Z) <= time(head(F_c)).
//
// Verification requires the relevant chains to resolve within the run's
// recorded horizon; ErrUnresolvable is returned (wrapped) otherwise, which
// callers with short recordings may choose to tolerate.
func (z *Zigzag) Verify(r *run.Run) error {
	net := r.Net()
	if len(z.Forks) == 0 || len(z.NonJoined) != len(z.Forks)-1 {
		return ErrNotAZigzag
	}
	type resolved struct {
		head, tail run.BasicNode
	}
	res := make([]resolved, len(z.Forks))
	for i, f := range z.Forks {
		if err := f.Check(net); err != nil {
			return err
		}
		head, err := f.Head()
		if err != nil {
			return err
		}
		tail, err := f.Tail()
		if err != nil {
			return err
		}
		hb, err := r.Resolve(head)
		if err != nil {
			return fmt.Errorf("%w: head of fork %d: %v", ErrUnresolvable, i, err)
		}
		tb, err := r.Resolve(tail)
		if err != nil {
			return fmt.Errorf("%w: tail of fork %d: %v", ErrUnresolvable, i, err)
		}
		res[i] = resolved{head: hb, tail: tb}
	}
	for k := 0; k+1 < len(z.Forks); k++ {
		h, t := res[k].head, res[k+1].tail
		if h.Proc != t.Proc {
			return fmt.Errorf("%w: head(F_%d) on process %d, tail(F_%d) on %d",
				ErrNotAZigzag, k+1, h.Proc, k+2, t.Proc)
		}
		th := r.MustTime(h)
		tt := r.MustTime(t)
		if th > tt {
			return fmt.Errorf("%w: time(head(F_%d))=%d > time(tail(F_%d))=%d",
				ErrNotAZigzag, k+1, th, k+2, tt)
		}
		joined := h == t
		if joined == z.NonJoined[k] {
			return fmt.Errorf("%w: forks %d,%d joined=%v but NonJoined=%v",
				ErrWeightMismatch, k+1, k+2, joined, z.NonJoined[k])
		}
	}
	wt, err := z.Weight(net)
	if err != nil {
		return err
	}
	t1 := r.MustTime(res[0].tail)
	t2 := r.MustTime(res[len(res)-1].head)
	if t1+wt > t2 {
		return fmt.Errorf("%w: time(tail)=%d + wt=%d > time(head)=%d", ErrPrecedence, t1, wt, t2)
	}
	return nil
}

// VerifyEndpoints additionally checks that the pattern runs from theta1 to
// theta2: tail(F_1) and head(F_c) correspond to the same basic nodes as
// theta1 and theta2 respectively. (Constructions extend endpoint legs by
// composition — Lemma 5 case 2 — so correspondence, not syntactic equality,
// is the meaningful condition.)
func (z *Zigzag) VerifyEndpoints(r *run.Run, theta1, theta2 run.GeneralNode) error {
	tail, err := z.Tail()
	if err != nil {
		return err
	}
	head, err := z.Head()
	if err != nil {
		return err
	}
	tb, err := r.Resolve(tail)
	if err != nil {
		return fmt.Errorf("%w: tail: %v", ErrUnresolvable, err)
	}
	hb, err := r.Resolve(head)
	if err != nil {
		return fmt.Errorf("%w: head: %v", ErrUnresolvable, err)
	}
	b1, err := r.Resolve(theta1)
	if err != nil {
		return fmt.Errorf("%w: theta1: %v", ErrUnresolvable, err)
	}
	b2, err := r.Resolve(theta2)
	if err != nil {
		return fmt.Errorf("%w: theta2: %v", ErrUnresolvable, err)
	}
	if tb != b1 {
		return fmt.Errorf("%w: tail resolves to %s, theta1 to %s", ErrEndpoint, tb, b1)
	}
	if hb != b2 {
		return fmt.Errorf("%w: head resolves to %s, theta2 to %s", ErrEndpoint, hb, b2)
	}
	return nil
}

// Visible is a sigma-visible zigzag pattern (Definition 7): a zigzag all of
// whose non-final fork heads are in past(r, sigma), and whose final fork's
// base is a general node rooted in past(r, sigma). A process at sigma can
// deduce, from its local state alone, that the pattern exists in the current
// run — and hence that the timed precedence it implies holds (Theorem 4).
type Visible struct {
	Zigzag
	Sigma run.BasicNode
}

// VerifyVisible checks Definition 7 against the run, on top of the plain
// zigzag checks. Non-final heads must lie inside past(r, sigma); every
// fork's base must be rooted at a past node.
func (v *Visible) VerifyVisible(r *run.Run) error {
	if err := v.Verify(r); err != nil {
		return err
	}
	ps, err := run.ViewOf(r, v.Sigma)
	if err != nil {
		return err
	}
	for i, f := range v.Forks {
		if !ps.Contains(f.Base.Base) {
			return fmt.Errorf("%w: base of fork %d rooted at %s outside past(%s)",
				ErrNotVisible, i+1, f.Base.Base, v.Sigma)
		}
		if i == len(v.Forks)-1 {
			break // condition (i) constrains only non-final forks
		}
		head, err := f.Head()
		if err != nil {
			return err
		}
		hb, err := r.Resolve(head)
		if err != nil {
			return fmt.Errorf("%w: head of fork %d: %v", ErrUnresolvable, i+1, err)
		}
		if !ps.Contains(hb) {
			return fmt.Errorf("%w: head(F_%d)=%s outside past(%s)", ErrNotVisible, i+1, hb, v.Sigma)
		}
	}
	return nil
}
