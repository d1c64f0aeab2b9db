package run

import (
	"errors"
	"fmt"

	"github.com/clockless/zigzag/internal/model"
)

// Errors reported when a view absorbs a receive batch. A failed Absorb
// leaves the view and its store unchanged.
var (
	ErrUnknownSender = errors.New("run: receipt from a node the store has not recorded")
	ErrStaleView     = errors.New("run: view is not at the end of its process's recorded timeline")
	ErrForeignView   = errors.New("run: view used with a run or store it does not belong to")
)

// causal is the read side of an execution's causal structure, which views
// filter by their frontiers. Two implementations exist: a recorded *Run
// (offline views) and a *Store filled as a live execution proceeds. Both
// may hold more than any one view covers; the View accessors filter.
type causal interface {
	// inboxOf returns the deliveries into the recorded node b, grouped in
	// one contiguous slice. A Run's entries carry times; callers strip
	// them before anything leaves the view.
	inboxOf(b BasicNode) []Delivery
	// receiver returns the node that received the message the recorded
	// non-initial node from sent on its out-arc ch, if that delivery is
	// recorded.
	receiver(from BasicNode, ch model.ChanID) (BasicNode, bool)
	// labelsAt returns the external labels absorbed at the recorded node b.
	labelsAt(b BasicNode) []string
	// earliest returns the smallest index of a node of p that absorbed
	// label, if any recorded node did.
	earliest(p model.ProcID, label string) (int, bool)
}

// Store is the append-only causal store of one live execution: for every
// node every view of the execution has created, the senders and channels
// of its inbox, the externals it absorbed and its frontier, plus a dense
// (sender node, out-arc) → receiver table and a store-wide earliest-node
// index per (process, label). It holds no times, so no view accessor can
// leak one.
//
// Each process's timeline is written by that process's view alone (see
// View.Absorb), in timeline order. A view over the store is its origin
// plus its frontier; every accessor reads the store and filters by the
// frontier.
type Store struct {
	net *model.Network
	n   int
	// dels holds every delivery, times zero; each node's inbox is one
	// contiguous span of it, in sender order.
	dels []Delivery
	// in[p-1][k] is node (p, k)'s inbox span in dels.
	in [][]span
	// recv[p-1][k*deg(p)+j] is the index of the node that received (p,
	// k)'s message on p's j-th out-arc, or -1 while it is undelivered.
	recv [][]int32
	// front[p-1][k*n : (k+1)*n] is node (p, k)'s frontier: the boundary
	// index of every process in its view, -1 for none.
	front [][]int32
	// ext lists the labels absorbed at each node that absorbed any.
	ext map[BasicNode][]string
	// first is the earliest node index per (process, label).
	first map[extKey]int
}

// extKey identifies an external-input lookup: which process absorbed which
// label.
type extKey struct {
	proc  model.ProcID
	label string
}

// NewStore returns an empty store over net holding the n initial nodes.
// Views over it are made by LocalView.
func NewStore(net *model.Network) *Store {
	n := net.N()
	st := &Store{
		net:   net,
		n:     n,
		in:    make([][]span, n),
		recv:  make([][]int32, n),
		front: make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		st.in[i] = []span{{}}
		st.recv[i] = minusOnes(nil, len(net.OutArcs(model.ProcID(i+1))))
		st.front[i] = minusOnes(make([]int32, 0, n), n)
		st.front[i][i] = 0
	}
	return st
}

// minusOnes appends k entries of -1 to s.
func minusOnes(s []int32, k int) []int32 {
	for ; k > 0; k-- {
		s = append(s, -1)
	}
	return s
}

// LocalView returns a view of process p's initial state over the store.
// Only one view per process may absorb into a store.
func (st *Store) LocalView(p model.ProcID) *View {
	v := &View{src: st, net: st.net, origin: BasicNode{Proc: p}, members: make([]int, st.n)}
	for i := range v.members {
		v.members[i] = -1
	}
	v.members[p-1] = 0
	return v
}

// recorded reports whether b is a node of the store.
func (st *Store) recorded(b BasicNode) bool {
	return st.net.ValidProc(b.Proc) && b.Index >= 0 && b.Index < len(st.in[b.Proc-1])
}

// slot returns the index of from's message on channel ch in recv[from.Proc-1].
func (st *Store) slot(from BasicNode, ch model.ChanID) int {
	arcs := st.net.OutArcs(from.Proc)
	return from.Index*len(arcs) + int(ch-arcs[0].ID)
}

func (st *Store) inboxOf(b BasicNode) []Delivery {
	sp := st.in[b.Proc-1][b.Index]
	return st.dels[sp.lo:sp.hi]
}

func (st *Store) receiver(from BasicNode, ch model.ChanID) (BasicNode, bool) {
	k := st.recv[from.Proc-1][st.slot(from, ch)]
	return BasicNode{Proc: st.net.ChannelOf(ch).To, Index: int(k)}, k >= 0
}

func (st *Store) labelsAt(b BasicNode) []string { return st.ext[b] }

func (st *Store) earliest(p model.ProcID, label string) (int, bool) {
	k, ok := st.first[extKey{proc: p, label: label}]
	return k, ok
}

// absorb appends v's next node to the store and raises v's frontier to
// cover it. Every sender is checked before anything changes.
func (st *Store) absorb(v *View, from []BasicNode, labels []string) (BasicNode, error) {
	p := v.origin.Proc
	k := len(st.in[p-1])
	if v.origin.Index != k-1 {
		return BasicNode{}, fmt.Errorf("%w: %s, timeline ends at index %d", ErrStaleView, v.origin, k-1)
	}
	next := BasicNode{Proc: p, Index: k}
	// Claim each sender's out-arc slot while checking, so a duplicate
	// within the batch is caught; a failure releases the claims.
	for i, f := range from {
		err := st.claim(f, p, int32(k))
		if err != nil {
			for _, g := range from[:i] {
				st.recv[g.Proc-1][st.slot(g, st.net.ChanIDOf(g.Proc, p))] = -1
			}
			return BasicNode{}, fmt.Errorf("receipt at %s: %w", next, err)
		}
	}

	lo := int32(len(st.dels))
	for _, f := range from {
		// Insert in sender order, the order a Run's inbox spans hold.
		i := len(st.dels)
		st.dels = append(st.dels, Delivery{})
		for ; i > int(lo) && senderLess(f, st.dels[i-1].From); i-- {
			st.dels[i] = st.dels[i-1]
		}
		st.dels[i] = Delivery{From: f, To: next, Chan: st.net.ChanIDOf(f.Proc, p)}
		fr := st.front[f.Proc-1][f.Index*st.n : (f.Index+1)*st.n]
		for q, b := range fr {
			if int(b) > v.members[q] {
				v.members[q] = int(b)
			}
		}
	}
	v.members[p-1] = k
	st.in[p-1] = append(st.in[p-1], span{lo: lo, hi: int32(len(st.dels))})
	st.recv[p-1] = minusOnes(st.recv[p-1], len(st.net.OutArcs(p)))
	for _, b := range v.members {
		st.front[p-1] = append(st.front[p-1], int32(b))
	}
	for _, l := range labels {
		st.record(next, l)
	}
	v.origin = next
	return next, nil
}

// senderLess orders the senders of one inbox by process, then index.
func senderLess(a, b BasicNode) bool {
	return a.Proc < b.Proc || a.Proc == b.Proc && a.Index < b.Index
}

// claim checks that from is a recorded sender with an undelivered message
// on a channel to p, and marks that message received at (p, k).
func (st *Store) claim(from BasicNode, p model.ProcID, k int32) error {
	if !st.recorded(from) || from.IsInitial() {
		return fmt.Errorf("%w: %s", ErrUnknownSender, from)
	}
	ch := st.net.ChanIDOf(from.Proc, p)
	if ch == model.NoChan {
		return fmt.Errorf("%w: %d->%d", ErrChannelMissing, from.Proc, p)
	}
	cell := &st.recv[from.Proc-1][st.slot(from, ch)]
	if *cell >= 0 {
		return fmt.Errorf("%w: %s to %d", ErrDuplicateSend, from, p)
	}
	*cell = k
	return nil
}

// record notes label as absorbed at node b, once per node.
func (st *Store) record(b BasicNode, label string) {
	for _, l := range st.ext[b] {
		if l == label {
			return
		}
	}
	if st.ext == nil {
		st.ext = make(map[BasicNode][]string)
		st.first = make(map[extKey]int)
	}
	st.ext[b] = append(st.ext[b], label)
	// Timelines are written in order, so the first record is the earliest.
	key := extKey{proc: b.Proc, label: label}
	if _, ok := st.first[key]; !ok {
		st.first[key] = b.Index
	}
}
