package run

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/clockless/zigzag/internal/model"
)

// Delivery records one message delivery: the FFIP message sent at node From
// on the channel (From.Proc -> To.Proc) at SendTime, delivered at node To at
// RecvTime. In an FFIP run every non-initial node sends exactly one message
// per outgoing channel, so (From, To.Proc) identifies the message.
//
// Chan is the dense id of the channel travelled, resolved against the
// network by the constructors in this package (Recorder, Builder, View);
// consumers on per-delivery hot paths use it for O(1) bounds lookups via
// (*model.Network).BoundsOf. Hand-rolled zero-valued literals leave it
// meaningless.
//
// A Run does not store Deliveries: it keeps the compact record delivery
// and expands it on the way out (Deliveries, Inbox, DeliveryFrom).
type Delivery struct {
	From     BasicNode
	To       BasicNode
	SendTime model.Time
	RecvTime model.Time
	Chan     model.ChanID
}

// Channel returns the channel the message travelled on.
func (d Delivery) Channel() model.Channel {
	return model.Channel{From: d.From.Proc, To: d.To.Proc}
}

// String renders the delivery as "p1#2@5 => p3#4@9".
func (d Delivery) String() string {
	return fmt.Sprintf("%s@%d => %s@%d", d.From, d.SendTime, d.To, d.RecvTime)
}

// External records the delivery of a spontaneous external message from the
// environment's set E to node To at time Time.
type External struct {
	To    BasicNode
	Time  model.Time
	Label string
}

// String renders the external as "ext(go)->p2#1@3".
func (e External) String() string {
	return fmt.Sprintf("ext(%s)->%s@%d", e.Label, e.To, e.Time)
}

// Pending describes an FFIP message that was sent but not delivered within
// the run's horizon (it is still in transit when the recording stops). Chan
// is the dense channel id, set by the constructors in this package.
type Pending struct {
	From     BasicNode
	To       model.ProcID
	SendTime model.Time
	Chan     model.ChanID
}

// delivery is a Run's 16-byte record of one message delivery. A message
// is identified by its sender node and its channel, so the record keeps
// just those and the receiver's index: the receiver's process is the
// channel's head, and the send and receive times are the times of the two
// endpoint nodes, which Recorder.Append checks them against.
type delivery struct {
	fromProc  int32
	fromIndex int32
	toIndex   int32
	ch        model.ChanID
}

// sender returns the node that sent the message.
func (d delivery) sender() BasicNode {
	return BasicNode{Proc: model.ProcID(d.fromProc), Index: int(d.fromIndex)}
}

// span is a half-open range [lo, hi) of indices into one of a Run's event
// slices; the zero value is the empty span.
type span struct{ lo, hi int32 }

// nodeRec is one basic node's row: its time, the deliveries and externals
// its creating batch absorbed, and where its out-arc slots start in sent.
type nodeRec struct {
	time model.Time
	in   span
	ext  span
	sent int32
}

// Run is a finite recording of an execution of the FFIP in a bounded
// context: the first Horizon+1 global states of an infinite run. A Recorder
// writes it one receive batch at a time, in tick order; every View of the
// execution reads these tables, so a live view can read a run that is
// still being recorded. A finished run (Recorder.Finish, Builder.Build) is
// immutable and safe for concurrent reads.
type Run struct {
	net     *model.Network
	horizon model.Time
	tables

	// fingerprint is the content hash of the recording, computed once by
	// the first Fingerprint call.
	fpOnce      sync.Once
	fingerprint uint64
}

// tables is the storage of a recording, the part of a Run that Recycle
// hands to the next NewRecorder.
type tables struct {
	// nodes[p-1][k] is node (p, k); nodes[p-1][0] is the initial node.
	nodes [][]nodeRec

	// deliveries are in tick order: by receive batch (time, then receiving
	// process), each batch's in sender order, so every inbox is one span.
	deliveries []delivery
	// externals are in tick order too, each batch's sorted by label.
	externals []External

	// sent[nodes[p-1][k].sent+j] is the index into deliveries of the
	// message node (p, k) sent on p's j-th out-arc, or -1 while it is
	// undelivered.
	sent []int32
	// extFirst is the earliest node index per (process, label).
	extFirst map[extKey]int

	pending []Pending
}

// extKey identifies an external-input lookup: which process absorbed which
// label.
type extKey struct {
	proc  model.ProcID
	label string
}

// node returns the row of a node the caller knows appears in the run.
func (r *Run) node(b BasicNode) *nodeRec { return &r.nodes[b.Proc-1][b.Index] }

// Errors reported by run construction and validation.
var (
	ErrNoNode            = errors.New("run: node does not appear in run")
	ErrUnresolvable      = errors.New("run: general node not resolvable within horizon")
	ErrBadDelivery       = errors.New("run: delivery violates channel bounds")
	ErrMissedDeadline    = errors.New("run: message not delivered by its upper bound")
	ErrInitialSend       = errors.New("run: initial nodes cannot send messages")
	ErrOrphanNode        = errors.New("run: non-initial node with no incoming deliveries")
	ErrDuplicateSend     = errors.New("run: multiple messages for one (node, channel)")
	ErrNonMonotoneTimes  = errors.New("run: node times not strictly increasing")
	ErrOutsideHorizon    = errors.New("run: event beyond horizon")
	ErrChannelMissing    = errors.New("run: delivery on a non-existent channel")
	ErrTimeMismatch      = errors.New("run: event time disagrees with node time")
	ErrExternalToInitial = errors.New("run: external delivered to an initial node")
	ErrBadHorizon        = errors.New("run: horizon out of range")
	ErrOutOfOrder        = errors.New("run: receive batch out of tick order")
)

// Net returns the network the run executes over.
func (r *Run) Net() *model.Network { return r.net }

// Horizon returns the last recorded time step.
func (r *Run) Horizon() model.Time { return r.horizon }

// NumNodes returns the total number of basic nodes appearing in the run,
// including the n initial nodes.
func (r *Run) NumNodes() int {
	total := 0
	for _, ns := range r.nodes {
		total += len(ns)
	}
	return total
}

// LastIndex returns the largest state index of process p in the run
// (0 if p only has its initial node).
func (r *Run) LastIndex(p model.ProcID) int { return len(r.nodes[p-1]) - 1 }

// Appears reports whether the basic node appears in the run.
func (r *Run) Appears(b BasicNode) bool {
	if !r.net.ValidProc(b.Proc) || b.Index < 0 {
		return false
	}
	return b.Index < len(r.nodes[b.Proc-1])
}

// Time returns time_r(sigma), the (minimal) time at which the node's local
// state holds.
func (r *Run) Time(b BasicNode) (model.Time, error) {
	if !r.Appears(b) {
		return 0, fmt.Errorf("%w: %s", ErrNoNode, b)
	}
	return r.node(b).time, nil
}

// MustTime is Time that panics if the node does not appear.
func (r *Run) MustTime(b BasicNode) model.Time {
	t, err := r.Time(b)
	if err != nil {
		panic(err)
	}
	return t
}

// NodeAt returns the node of process p whose state holds at time t: the
// last node with time <= t. The initial node covers every time before the
// first batch.
func (r *Run) NodeAt(p model.ProcID, t model.Time) BasicNode {
	ns := r.nodes[p-1]
	// Binary search for the last index with a time <= t.
	idx := sort.Search(len(ns), func(i int) bool { return ns[i].time > t }) - 1
	if idx < 0 {
		idx = 0
	}
	return BasicNode{Proc: p, Index: idx}
}

// Deliveries returns all deliveries in tick order: by receive batch (time,
// then receiving process), each batch's in sender order. The slice is
// freshly expanded from the run's compact table on every call, in O(D) for
// D deliveries; NumDeliveries counts them without expanding.
func (r *Run) Deliveries() []Delivery {
	out := make([]Delivery, len(r.deliveries))
	for i, d := range r.deliveries {
		out[i] = r.expand(d)
	}
	return out
}

// NumDeliveries returns the number of recorded deliveries.
func (r *Run) NumDeliveries() int { return len(r.deliveries) }

// receiverOf returns the node that received the delivery d.
func (r *Run) receiverOf(d delivery) BasicNode {
	return BasicNode{Proc: r.net.ChannelOf(d.ch).To, Index: int(d.toIndex)}
}

// expand returns the full Delivery of a compact record, its times read off
// its endpoint nodes.
func (r *Run) expand(d delivery) Delivery {
	from, to := d.sender(), r.receiverOf(d)
	return Delivery{From: from, To: to, SendTime: r.node(from).time, RecvTime: r.node(to).time, Chan: d.ch}
}

// Externals returns all external inputs in tick order, each batch's in
// label order. Callers must not mutate the returned slice.
func (r *Run) Externals() []External { return r.externals }

// PendingMessages returns the messages still in transit at the horizon.
// Callers must not mutate the returned slice.
func (r *Run) PendingMessages() []Pending { return r.pending }

// Inbox returns the deliveries absorbed by the batch that created node b.
func (r *Run) Inbox(b BasicNode) []Delivery {
	if !r.Appears(b) {
		return []Delivery{}
	}
	in := r.inboxOf(b)
	out := make([]Delivery, len(in))
	for i, d := range in {
		out[i] = r.expand(d)
	}
	return out
}

// ExternalsAt returns the external inputs absorbed by the batch that
// created node b, in label order.
func (r *Run) ExternalsAt(b BasicNode) []External {
	if !r.Appears(b) {
		return []External{}
	}
	return append([]External{}, r.externalsOf(b)...)
}

func (r *Run) inboxOf(b BasicNode) []delivery {
	sp := r.node(b).in
	return r.deliveries[sp.lo:sp.hi]
}

func (r *Run) externalsOf(b BasicNode) []External {
	sp := r.node(b).ext
	return r.externals[sp.lo:sp.hi]
}

// sentAt returns the slot in sent of the message the appearing non-initial
// node from sends on its out-arc ch.
func (r *Run) sentAt(from BasicNode, ch model.ChanID) *int32 {
	return &r.sent[int(r.node(from).sent)+int(ch-r.net.OutBase(from.Proc))]
}

// receiver returns the node that received the message the appearing
// non-initial node from sent on its out-arc ch, if that delivery is
// recorded.
func (r *Run) receiver(from BasicNode, ch model.ChanID) (BasicNode, bool) {
	idx := *r.sentAt(from, ch)
	if idx < 0 {
		return BasicNode{}, false
	}
	return r.receiverOf(r.deliveries[idx]), true
}

// DeliveryFrom returns the delivery of the message sent at node from to
// process to, and false if that message is still pending (or from never
// sends, i.e. it is initial).
func (r *Run) DeliveryFrom(from BasicNode, to model.ProcID) (Delivery, bool) {
	ch := r.net.ChanIDOf(from.Proc, to)
	if ch == model.NoChan || from.IsInitial() || !r.Appears(from) {
		return Delivery{}, false
	}
	idx := *r.sentAt(from, ch)
	if idx < 0 {
		return Delivery{}, false
	}
	return r.expand(r.deliveries[idx]), true
}

// Resolve computes basic(theta, r) per Definition 4: the basic node reached
// by following theta's message chain. It fails with ErrUnresolvable if a
// link of the chain is still pending at the horizon, and with ErrNoNode if
// the base does not appear.
func (r *Run) Resolve(theta GeneralNode) (BasicNode, error) {
	if err := theta.Valid(r.net); err != nil {
		return BasicNode{}, err
	}
	if !r.Appears(theta.Base) {
		return BasicNode{}, fmt.Errorf("%w: base %s", ErrNoNode, theta.Base)
	}
	cur := theta.Base
	for _, next := range theta.Path[1:] {
		if cur.IsInitial() {
			return BasicNode{}, fmt.Errorf("%w: chain of %s leaves initial node %s",
				ErrUnresolvable, theta, cur)
		}
		d, ok := r.DeliveryFrom(cur, next)
		if !ok {
			return BasicNode{}, fmt.Errorf("%w: %s stuck at %s->%d", ErrUnresolvable, theta, cur, next)
		}
		cur = d.To
	}
	return cur, nil
}

// TimeOf returns time_r(theta) = time_r(basic(theta, r)).
func (r *Run) TimeOf(theta GeneralNode) (model.Time, error) {
	b, err := r.Resolve(theta)
	if err != nil {
		return 0, err
	}
	return r.Time(b)
}

// MustTimeOf is TimeOf that panics on error.
func (r *Run) MustTimeOf(theta GeneralNode) model.Time {
	t, err := r.TimeOf(theta)
	if err != nil {
		panic(err)
	}
	return t
}

// Precedes reports whether (R, r) |= theta1 --x--> theta2: both nodes are
// resolvable and time(theta1) + x <= time(theta2).
func (r *Run) Precedes(theta1 GeneralNode, x int, theta2 GeneralNode) (bool, error) {
	t1, err := r.TimeOf(theta1)
	if err != nil {
		return false, err
	}
	t2, err := r.TimeOf(theta2)
	if err != nil {
		return false, err
	}
	return t1+x <= t2, nil
}
