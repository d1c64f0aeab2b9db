package run

import (
	"errors"
	"fmt"

	"github.com/clockless/zigzag/internal/model"
)

// ErrForeignView reports a view moved over a run it was not taken from.
var ErrForeignView = errors.New("run: view used with a run it does not belong to")

// View is past(r, sigma) — the set of basic nodes sigma' with sigma'
// happens-before sigma (Definition 2), sigma included — read as the
// subjective information content of sigma's local state under an FFIP: the
// structure of its causal past — which nodes exist, which deliveries wired
// them together, which external inputs arrived — and nothing else.
// Crucially, a View carries no real-time information: every analysis built
// on it (in particular the extended bounds graph and hence all knowledge
// computation) is a function of structure alone, which is the paper's
// clockless point made executable.
//
// A causal past is downward-closed, so it is fully described by its
// frontier: one boundary index per process (the boundary nodes of
// Definition 15), a vector clock. A View is therefore (run, origin,
// frontier) over the one recording of its execution — a finished run for
// ViewOf, or the run sim.Stepper is still recording for the views
// internal/live moves state by state. Every accessor reads the run and
// keeps what lies at or below the frontier, and none returns a time. That
// is exact because a process's nodes in a view form a prefix of its
// timeline: a delivery is in the view iff its receiver is, and the earliest
// node of a process with a given label is in the view iff any such node is.
type View struct {
	r      *Run
	origin BasicNode
	// members[p-1] is the boundary index of process p (-1 if absent).
	members []int
	// covered and stack are Advance's reused walk state (see Run.raise).
	covered []int
	stack   []model.ProcID
}

// ViewOf extracts the view of sigma from a recorded run: past(r, sigma),
// computed by a reverse search over locality and delivery edges. It
// returns ErrNoNode when sigma does not appear in r.
func ViewOf(r *Run, sigma BasicNode) (*View, error) {
	if !r.Appears(sigma) {
		return nil, ErrNoNode
	}
	n := r.net.N()
	members := make([]int, n)
	for i := range members {
		members[i] = -1
	}
	covered := append([]int(nil), members...)
	r.raise(members, covered, sigma, make([]model.ProcID, 0, n))
	return &View{r: r, origin: sigma, members: members}, nil
}

// raise grows the downward-closed frontier members to cover past(r, sigma).
// On entry and exit covered equals members. During the walk members[q] is
// the index process q must be covered to and covered[q] the index its
// timeline has been scanned to, so q is on the stack iff members[q] >
// covered[q]: each process is on it at most once, and a stack with room
// for n entries never grows. Scanning a process covers the whole prefix
// up to its target and raises the target of the sender of every delivery
// into the newly covered nodes, so nodes already covered are never
// revisited. It returns the stack for reuse.
func (r *Run) raise(members, covered []int, sigma BasicNode, stack []model.ProcID) []model.ProcID {
	if sigma.Index <= members[sigma.Proc-1] {
		return stack
	}
	members[sigma.Proc-1] = sigma.Index
	stack = append(stack[:0], sigma.Proc)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := covered[q-1]+1, members[q-1]
		covered[q-1] = hi
		for k := lo; k <= hi; k++ {
			for _, d := range r.inboxOf(BasicNode{Proc: q, Index: k}) {
				f, i := d.fromProc-1, int(d.fromIndex)
				if i <= members[f] {
					continue
				}
				if members[f] == covered[f] {
					stack = append(stack, model.ProcID(d.fromProc))
				}
				members[f] = i
			}
		}
	}
	return stack
}

// HappensBefore reports whether a happens-before b in r (a ≼ b), i.e.
// a ∈ past(r, b). Both nodes must appear in the run.
func (r *Run) HappensBefore(a, b BasicNode) (bool, error) {
	if !r.Appears(a) {
		return false, ErrNoNode
	}
	v, err := ViewOf(r, b)
	if err != nil {
		return false, err
	}
	return v.Contains(a), nil
}

// Advance moves a view taken from r (by ViewOf or earlier Advance calls) to
// its origin's successor and returns the new origin. It raises the frontier
// to past(r, next) by the same reverse walk as ViewOf, started from the
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

// Contains reports membership of a basic node in the view. A general node
// <sigma', p'> is sigma-recognized — sigma knows it appears in the run
// (Section 2.2) — iff the view contains its base sigma'.
func (v *View) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(v.members) || b.Index < 0 {
		return false
	}
	return b.Index <= v.members[b.Proc-1]
}

// Boundary returns the boundary node of process p (Definition 15): the
// last p-node inside the view. ok is false if p contributes no node.
func (v *View) Boundary(p model.ProcID) (BasicNode, bool) {
	if p < 1 || int(p) > len(v.members) || v.members[p-1] < 0 {
		return BasicNode{}, false
	}
	return BasicNode{Proc: p, Index: v.members[p-1]}, true
}

// Equal reports whether two views have the same frontier, i.e. contain
// exactly the same nodes, whatever runs they were taken from.
func (v *View) Equal(w *View) bool {
	if len(v.members) != len(w.members) {
		return false
	}
	for i := range v.members {
		if v.members[i] != w.members[i] {
			return false
		}
	}
	return true
}

// Nodes returns the view's nodes sorted by (process, index).
func (v *View) Nodes() []BasicNode {
	out := make([]BasicNode, 0, v.Size())
	for i, k := range v.members {
		for idx := 0; idx <= k; idx++ {
			out = append(out, BasicNode{Proc: model.ProcID(i + 1), Index: idx})
		}
	}
	return out
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
		dst = append(dst, Delivery{From: d.sender(), To: b, Chan: d.ch})
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

// ResolvePrefix resolves theta's chain while it stays inside the view: it
// returns the basic nodes of the resolved prefix (starting with
// theta.Base) and the number of hops resolved. If hops <
// theta.Path.Hops(), the (hops+1)-th chain node lies beyond the view's
// horizon — its delivery left the view or is unrecorded. Once a chain
// leaves the view it never re-enters: a receipt inside the view would drag
// the sender in.
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
