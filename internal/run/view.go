package run

import (
	"errors"
	"fmt"

	"github.com/clockless/zigzag/internal/model"
)

// ErrForeignView reports a view moved over a run it was not taken from.
var ErrForeignView = errors.New("run: view used with a run it does not belong to")

// View is the subjective information content of a node's local state under
// an FFIP: the structure of its causal past — which nodes exist, which
// deliveries wired them together, which external inputs arrived — and
// nothing else. Crucially, a View carries no real-time information: every
// analysis built on it (in particular the extended bounds graph and hence
// all knowledge computation) is a function of structure alone, which is the
// paper's clockless point made executable.
//
// A causal past is downward-closed, so it is fully described by its
// frontier: one boundary index per process, a vector clock. A View is
// therefore (run, origin, frontier) over the one recording of its
// execution — a finished run for ViewOf, or the run sim.Stepper is still
// recording for the views internal/live moves state by state. Every
// accessor reads the run and keeps what lies at or below the frontier, and
// none returns a time. That is exact because a process's nodes in a view
// form a prefix of its timeline: a delivery is in the view iff its receiver
// is, and the earliest node of a process with a given label is in the view
// iff any such node is.
type View struct {
	r      *Run
	origin BasicNode
	// members[p-1] is the boundary index of process p (-1 if absent).
	members []int
	// covered and stack are Advance's reused walk state (see Run.raise).
	covered []int
	stack   []model.ProcID
}

// ViewOf extracts the view of sigma from a recorded run.
func ViewOf(r *Run, sigma BasicNode) (*View, error) {
	ps, err := r.Past(sigma)
	if err != nil {
		return nil, err
	}
	return &View{r: r, origin: sigma, members: ps.members}, nil
}

// Advance moves a view taken from r (by ViewOf or earlier Advance calls) to
// its origin's successor and returns the new origin. It raises the frontier
// to past(r, next) by the same reverse walk as Past, started from the
// view's current frontier: a past is downward-closed and a successor's past
// contains its predecessor's, so the walked view equals ViewOf(r, next).
// Walking a whole timeline costs O(|past(r, last)|) instead of one ViewOf
// per state, and the walk's buffers are the view's own, so after the first
// call Advance does not allocate. r may still be growing: the successor
// only has to be recorded. It returns ErrNoNode when the successor does
// not appear in r, and ErrForeignView when the view was not taken from r;
// either way the view is unchanged.
func (v *View) Advance(r *Run) (BasicNode, error) {
	if v.r != r {
		return BasicNode{}, fmt.Errorf("%w: advancing over another run", ErrForeignView)
	}
	next := v.origin.Successor()
	if !r.Appears(next) {
		return BasicNode{}, ErrNoNode
	}
	if v.covered == nil {
		v.covered = append([]int(nil), v.members...)
		v.stack = make([]model.ProcID, 0, len(v.members))
	}
	v.origin = next
	v.stack = r.raise(v.members, v.covered, next, v.stack)
	return next, nil
}

// Net returns the network the view lives in.
func (v *View) Net() *model.Network { return v.r.net }

// Origin returns the node whose local state the view represents.
func (v *View) Origin() BasicNode { return v.origin }

// Contains reports membership of a basic node in the view.
func (v *View) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(v.members) || b.Index < 0 {
		return false
	}
	return b.Index <= v.members[b.Proc-1]
}

// Boundary returns the last node of process p inside the view.
func (v *View) Boundary(p model.ProcID) (BasicNode, bool) {
	if p < 1 || int(p) > len(v.members) || v.members[p-1] < 0 {
		return BasicNode{}, false
	}
	return BasicNode{Proc: p, Index: v.members[p-1]}, true
}

// PastSet converts the view's membership to a PastSet (for callers that
// verify witnesses against recorded runs).
func (v *View) PastSet() *PastSet {
	return &PastSet{origin: v.origin, members: append([]int(nil), v.members...)}
}

// Size returns the number of nodes in the view.
func (v *View) Size() int {
	total := 0
	for _, k := range v.members {
		total += k + 1
	}
	return total
}

// DeliveryTo returns the node that received the message sent at from to
// process to, if that delivery is inside the view.
func (v *View) DeliveryTo(from BasicNode, to model.ProcID) (BasicNode, bool) {
	ch := v.r.net.ChanIDOf(from.Proc, to)
	if ch == model.NoChan || from.IsInitial() || !v.Contains(from) {
		return BasicNode{}, false
	}
	return v.deliveredOn(from, ch)
}

// deliveredOn is DeliveryTo for a covered non-initial sender and one of its
// out-arcs.
func (v *View) deliveredOn(from BasicNode, ch model.ChanID) (BasicNode, bool) {
	b, ok := v.r.receiver(from, ch)
	if !ok || !v.Contains(b) {
		return BasicNode{}, false
	}
	return b, true
}

// AppendInbox appends to dst the deliveries into the view node b in sender
// order, with the dense channel id resolved and the (structurally unknown)
// times zero, and returns the extended slice. It appends nothing when b is outside the view.
func (v *View) AppendInbox(dst []Delivery, b BasicNode) []Delivery {
	if !v.Contains(b) {
		return dst
	}
	for _, d := range v.r.inboxOf(b) {
		dst = append(dst, Delivery{From: d.From, To: d.To, Chan: d.Chan})
	}
	return dst
}

// Deliveries returns the view's deliveries as (from, to) node pairs in
// (sender, destination process) order, with the dense channel id resolved.
// Send and receive times are structural unknowns and left zero.
func (v *View) Deliveries() []Delivery {
	sends := 0
	for i, k := range v.members {
		if k > 0 {
			sends += k * len(v.r.net.OutArcs(model.ProcID(i+1)))
		}
	}
	out := make([]Delivery, 0, sends)
	for i, k := range v.members {
		p := model.ProcID(i + 1)
		for idx := 1; idx <= k; idx++ {
			from := BasicNode{Proc: p, Index: idx}
			for _, a := range v.r.net.OutArcs(p) {
				if to, ok := v.deliveredOn(from, a.ID); ok {
					out = append(out, Delivery{From: from, To: to, Chan: a.ID})
				}
			}
		}
	}
	return out
}

// Leaving returns the (sender, destination) pairs of FFIP messages sent at
// view nodes and not received inside the view — the E” generators of the
// extended bounds graph — in (sender, destination) order. Send times are
// structural unknowns and left zero.
func (v *View) Leaving() []Pending {
	var out []Pending
	for i, k := range v.members {
		p := model.ProcID(i + 1)
		for idx := 1; idx <= k; idx++ {
			from := BasicNode{Proc: p, Index: idx}
			for _, a := range v.r.net.OutArcs(p) {
				if _, ok := v.deliveredOn(from, a.ID); !ok {
					out = append(out, Pending{From: from, To: a.To, Chan: a.ID})
				}
			}
		}
	}
	return out
}

// ResolvePrefix resolves theta's chain while it stays inside the view,
// mirroring (*Run).ChainPrefix: it returns the resolved prefix nodes and
// hop count.
func (v *View) ResolvePrefix(theta GeneralNode) (prefix []BasicNode, hops int) {
	cur := theta.Base
	if !v.Contains(cur) {
		return nil, 0
	}
	prefix = append(prefix, cur)
	for _, next := range theta.Path[1:] {
		if cur.IsInitial() {
			return prefix, hops
		}
		d, ok := v.DeliveryTo(cur, next)
		if !ok {
			return prefix, hops
		}
		cur = d
		prefix = append(prefix, cur)
		hops++
	}
	return prefix, hops
}

// ExternalsAt returns the external labels absorbed at a view node, one per
// recorded external, in label order.
func (v *View) ExternalsAt(b BasicNode) []string {
	if !v.Contains(b) {
		return nil
	}
	var out []string
	for _, e := range v.r.externalsOf(b) {
		out = append(out, e.Label)
	}
	return out
}

// FindExternal locates the earliest node of process p that absorbed an
// external input with the given label. It reads the run's earliest-node
// index and keeps the answer only if it lies inside the view: p's view
// nodes are a prefix of its timeline, so if any of them absorbed the label,
// the earliest one is among them. Online agents (live.Protocol2) call this
// at every state until the label appears, at O(1) each.
func (v *View) FindExternal(p model.ProcID, label string) (BasicNode, bool) {
	k, ok := v.r.extFirst[extKey{proc: p, label: label}]
	n := BasicNode{Proc: p, Index: k}
	if !ok || !v.Contains(n) {
		return BasicNode{}, false
	}
	return n, true
}
