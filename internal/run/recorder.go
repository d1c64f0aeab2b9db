package run

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"

	"github.com/clockless/zigzag/internal/model"
)

// Arrival is one message of a receive batch: the node that sent it, its
// send time and its channel.
type Arrival struct {
	From BasicNode
	Send model.Time
	// Chan is the dense id of the channel the message travelled, from
	// From.Proc to the batch's process: the producer knows it (the
	// stepper's flood reads it off the out-arc, Builder resolves it with
	// ChanIDOf), and Append checks it in O(1) instead of searching for it.
	// model.NoChan, an out-of-range id or another channel's id fails with
	// ErrChannelMissing.
	Chan model.ChanID
}

// Recorder writes a Run one receive batch at a time, in tick order: the
// batches of one tick in process order, ticks ascending. Every batch goes
// through Append, which checks it against the model before anything
// changes, so a run is only ever built from legal batches — whether a
// live environment (sim.Stepper) appends them as it schedules them or
// Builder.Build derives and sorts them from timed events. Views may read
// the run while it grows (Run, View.Advance).
type Recorder struct {
	r        *Run
	tolerant bool
	// t and p are the tick and process of the last batch appended.
	t model.Time
	p model.ProcID
}

// initialCap bounds the per-process node capacity a recorder reserves up
// front; longer timelines grow by appending.
const initialCap = 64

// NewRecorder returns a recorder of a run over net up to horizon, holding
// the n initial nodes. It fails with ErrBadHorizon as CheckHorizon does.
// The run records into the tables of a recycled run (Run.Recycle) when
// the free list holds some, and into fresh ones otherwise.
func NewRecorder(net *model.Network, horizon model.Time) (*Recorder, error) {
	n := net.N()
	if err := CheckHorizon(n, horizon); err != nil {
		return nil, err
	}
	c := initialCap
	if int(horizon)+1 < c {
		c = int(horizon) + 1
	}
	r := &Run{net: net, horizon: horizon}
	select {
	case tb := <-freeTables:
		r.reuse(tb, n, c)
	default:
		r.nodes = make([][]nodeRec, n)
		r.deliveries = make([]delivery, 0, net.NumChannels())
		backing := make([]nodeRec, n*c)
		for i := range r.nodes {
			r.nodes[i] = append(backing[i*c:i*c:(i+1)*c], nodeRec{})
		}
	}
	return &Recorder{r: r}, nil
}

// freeTables holds the tables of recycled runs. A sweep worker holds one
// run at a time, so one entry per processor covers a pool of workers;
// Recycle drops the tables of a run that finds the list full.
var freeTables = make(chan tables, runtime.GOMAXPROCS(0))

// reuse gives r the recycled tables tb for n processes: every table
// truncated to length 0 with its capacity kept, and each timeline holding
// its initial node. Tables are overwritten in append order, so only the
// external index, a map, needs clearing. Timelines of processes past the
// donor's count get c nodes of room.
func (r *Run) reuse(tb tables, n, c int) {
	nodes := tb.nodes[:cap(tb.nodes)]
	for len(nodes) < n {
		nodes = append(nodes, nil)
	}
	r.nodes = nodes[:n]
	for i, ns := range r.nodes {
		if cap(ns) == 0 {
			ns = make([]nodeRec, 0, c)
		}
		r.nodes[i] = append(ns[:0], nodeRec{})
	}
	r.deliveries = tb.deliveries[:0]
	r.externals = tb.externals[:0]
	r.sent = tb.sent[:0]
	r.pending = tb.pending[:0]
	clear(tb.extFirst)
	r.extFirst = tb.extFirst
}

// Recycle hands the run's tables to the next NewRecorder and zeroes the
// run, so that any later use of it panics instead of reading another
// execution. Only the owner of a finished run may call it, once nothing
// reads the run any more: no View, engine handle or slice from Externals
// or PendingMessages may outlive the call. A sweep owns the runs it
// derives its rows from; runs handed to callers are never recycled.
// Recycling a zeroed run does nothing.
func (r *Run) Recycle() {
	if r.net == nil {
		return
	}
	tb := r.tables
	*r = Run{}
	select {
	case freeTables <- tb:
	default:
	}
}

// Tolerate relaxes Append's latency-window check to latency >= 1, admitting
// recordings of fault-injected executions whose deliveries may violate
// their channel's [L, U] bounds (internal/faults deadline plans). Every
// structural check still applies, and undelivered messages surface as
// Pending. Such a run will generally fail Validate, which is the point: the
// faults injector, not the recorder, owns violation accounting for faulted
// runs.
func (rc *Recorder) Tolerate() { rc.tolerant = true }

// Run returns the run being recorded. It holds every batch appended so
// far; its pending messages are set by Finish.
func (rc *Recorder) Run() *Run { return rc.r }

// Append records the receive batch that moves process p to its next state
// at tick t: one delivery per arrival and one external per label. It
// returns the node the batch creates. It fails if the batch breaks tick
// order (ErrOutOfOrder), lies outside [1, horizon] (ErrOutsideHorizon),
// is empty (ErrOrphanNode), or if an arrival's Chan is not its channel
// (ErrChannelMissing), leaves an initial node (ErrInitialSend), breaks its
// channel's latency window (ErrBadDelivery), does not come from the
// sender's node at its send time (ErrNoNode) or repeats a message already
// delivered (ErrDuplicateSend). A failed Append leaves the run unchanged.
func (rc *Recorder) Append(p model.ProcID, t model.Time, arrivals []Arrival, labels []string) (BasicNode, error) {
	r := rc.r
	switch {
	case !r.net.ValidProc(p):
		return BasicNode{}, fmt.Errorf("%w: process %d", model.ErrBadProc, p)
	case t < 1 || t > r.horizon:
		return BasicNode{}, fmt.Errorf("%w: time %d outside [1, %d]", ErrOutsideHorizon, t, r.horizon)
	case t < rc.t || t == rc.t && p <= rc.p:
		return BasicNode{}, fmt.Errorf("%w: process %d at %d after process %d at %d", ErrOutOfOrder, p, t, rc.p, rc.t)
	case len(arrivals) == 0 && len(labels) == 0:
		return BasicNode{}, fmt.Errorf("%w: empty batch for process %d at %d", ErrOrphanNode, p, t)
	}
	next := BasicNode{Proc: p, Index: len(r.nodes[p-1])}
	// Claim each message's slot while checking, so a duplicate within the
	// batch is caught; a failure releases the claims.
	for i, a := range arrivals {
		if err := rc.claim(a, p, t); err != nil {
			for _, b := range arrivals[:i] {
				*r.sentAt(b.From, b.Chan) = -1
			}
			return BasicNode{}, fmt.Errorf("receipt at %s@%d: %w", next, t, err)
		}
	}

	arcs := r.net.OutArcs(p)
	sends := r.net.NumChannels() * int(r.horizon)
	r.deliveries = reserve(r.deliveries, len(arrivals), t, r.horizon, sends)
	r.sent = reserve(r.sent, len(arcs), t, r.horizon, sends)
	r.nodes[p-1] = reserve(r.nodes[p-1], 1, t, r.horizon, int(r.horizon)+1)

	rec := nodeRec{time: t, sent: int32(len(r.sent))}
	rec.in.lo = int32(len(r.deliveries))
	for _, a := range arrivals {
		// Insert in sender order, the order of every inbox span.
		d := delivery{fromProc: int32(a.From.Proc), fromIndex: int32(a.From.Index), toIndex: int32(next.Index), ch: a.Chan}
		i := len(r.deliveries)
		r.deliveries = append(r.deliveries, d)
		for ; i > int(rec.in.lo) && senderLess(d, r.deliveries[i-1]); i-- {
			r.deliveries[i] = r.deliveries[i-1]
		}
		r.deliveries[i] = d
	}
	rec.in.hi = int32(len(r.deliveries))
	for i := rec.in.lo; i < rec.in.hi; i++ {
		d := r.deliveries[i]
		*r.sentAt(d.sender(), d.ch) = i
	}

	rec.ext.lo = int32(len(r.externals))
	for _, l := range labels {
		e := External{To: next, Time: t, Label: l}
		i := len(r.externals)
		r.externals = append(r.externals, e)
		for ; i > int(rec.ext.lo) && l < r.externals[i-1].Label; i-- {
			r.externals[i] = r.externals[i-1]
		}
		r.externals[i] = e
		// Timelines are appended in order, so the first record is the
		// earliest.
		if r.extFirst == nil {
			r.extFirst = make(map[extKey]int)
		}
		key := extKey{proc: p, label: l}
		if _, ok := r.extFirst[key]; !ok {
			r.extFirst[key] = next.Index
		}
	}
	rec.ext.hi = int32(len(r.externals))

	for range arcs {
		r.sent = append(r.sent, -1)
	}
	r.nodes[p-1] = append(r.nodes[p-1], rec)
	rc.t, rc.p = t, p
	return next, nil
}

// reserve returns s with room for extra more elements at tick t. A full
// table grows to the length its growth so far projects for the horizon —
// the flood grows the tables about linearly in time — plus an eighth, and
// by at least an eighth, but never past bound, a bound on its final
// length. Append's own growth would allocate several times the final
// tables on long horizons.
func reserve[T any](s []T, extra int, t, horizon model.Time, bound int) []T {
	need := len(s) + extra
	if need <= cap(s) {
		return s
	}
	want := need * int(horizon) / int(t)
	want = min(max(want+want/8, need+need/8), bound)
	ns := make([]T, len(s), max(want, need))
	copy(ns, s)
	return ns
}

// senderLess orders the deliveries of one inbox by sender process, then
// sender index.
func senderLess(a, b delivery) bool {
	return a.fromProc < b.fromProc || a.fromProc == b.fromProc && a.fromIndex < b.fromIndex
}

// claim checks one arrival of a batch for process p at tick t and marks
// its message delivered.
func (rc *Recorder) claim(a Arrival, p model.ProcID, t model.Time) error {
	r := rc.r
	ch := a.Chan
	if ch < 0 || int(ch) >= r.net.NumChannels() || r.net.ChannelOf(ch) != (model.Channel{From: a.From.Proc, To: p}) {
		return fmt.Errorf("%w: %d->%d on channel id %d", ErrChannelMissing, a.From.Proc, p, ch)
	}
	if a.Send == 0 || a.From.IsInitial() {
		return fmt.Errorf("%w: send at time %d by %s", ErrInitialSend, a.Send, a.From)
	}
	bd := r.net.BoundsOf(ch)
	if lat := t - a.Send; lat < 1 || !rc.tolerant && (lat < bd.Lower || lat > bd.Upper) {
		return fmt.Errorf("%w: %s@%d => p%d@%d latency %d outside %s", ErrBadDelivery, a.From, a.Send, p, t, lat, bd)
	}
	if !r.Appears(a.From) || r.node(a.From).time != a.Send {
		return fmt.Errorf("%w: process %d has no node %s at send time %d", ErrNoNode, a.From.Proc, a.From, a.Send)
	}
	slot := r.sentAt(a.From, ch)
	if *slot >= 0 {
		return fmt.Errorf("%w: %s to %d", ErrDuplicateSend, a.From, p)
	}
	*slot = int32(len(r.deliveries))
	return nil
}

// Finish derives the messages still in transit at the horizon and returns
// the finished run; its fingerprint is computed on first use. The recorder
// accepts no batch afterwards (ErrOutOfOrder).
func (rc *Recorder) Finish() *Run {
	r := rc.r
	rc.t, rc.p = r.horizon+1, 0
	// Every non-initial node sends on every out-arc under FFIP; sends
	// without a recorded delivery are still in transit.
	r.pending = r.pending[:0]
	for i, ns := range r.nodes {
		p := model.ProcID(i + 1)
		arcs := r.net.OutArcs(p)
		for k := 1; k < len(ns); k++ {
			row := r.sent[ns[k].sent:]
			for j, a := range arcs {
				if row[j] < 0 {
					r.pending = append(r.pending, Pending{From: BasicNode{Proc: p, Index: k}, To: a.To, SendTime: ns[k].time, Chan: a.ID})
				}
			}
		}
	}
	// (send time, sender, receiver) is a total order: a process has at
	// most one node per tick and one channel per receiver.
	slices.SortFunc(r.pending, func(a, b Pending) int {
		if a.SendTime != b.SendTime {
			return cmp.Compare(a.SendTime, b.SendTime)
		}
		if a.From.Proc != b.From.Proc {
			return cmp.Compare(a.From.Proc, b.From.Proc)
		}
		return cmp.Compare(a.To, b.To)
	})
	return r
}
