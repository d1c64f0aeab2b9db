package run

import (
	"fmt"
	"sort"

	"github.com/clockless/zigzag/internal/model"
)

// MessageEvent describes one delivery for the Builder: the FFIP message sent
// by FromProc at SendTime (i.e. at FromProc's node whose time is exactly
// SendTime) on the channel to ToProc, delivered at RecvTime.
type MessageEvent struct {
	FromProc model.ProcID
	ToProc   model.ProcID
	SendTime model.Time
	RecvTime model.Time
}

// ExternalEvent describes a spontaneous external input for the Builder.
type ExternalEvent struct {
	Proc  model.ProcID
	Time  model.Time
	Label string
}

// Builder assembles a Run from raw timed events, in any order. Node indices
// are derived: every distinct time at which a process receives something
// (messages and/or externals) becomes one batch, creating one new basic
// node. Build sorts the batches into tick order and appends them through a
// Recorder, so a built run is the run a live environment records from the
// same batches. The builder serves producers that do not emit batches in
// tick order: the run-synthesis constructions of internal/timing (Lemma 8
// run-by-timing, Definition 24 fast run), the trace loader and tests.
type Builder struct {
	net      *model.Network
	horizon  model.Time
	messages []MessageEvent
	externs  []ExternalEvent
	tolerant bool
}

// NewBuilder returns a Builder for runs over net recorded up to horizon.
func NewBuilder(net *model.Network, horizon model.Time) *Builder {
	return &Builder{net: net, horizon: horizon}
}

// Message appends a delivery event.
func (bl *Builder) Message(ev MessageEvent) *Builder {
	bl.messages = append(bl.messages, ev)
	return bl
}

// External appends an external-input event.
func (bl *Builder) External(ev ExternalEvent) *Builder {
	bl.externs = append(bl.externs, ev)
	return bl
}

// Tolerate relaxes Build's latency-window check as Recorder.Tolerate does,
// admitting recordings of fault-injected executions.
func (bl *Builder) Tolerate() *Builder {
	bl.tolerant = true
	return bl
}

// maxTableCells caps n*(horizon+1), the length of the horizon-indexed
// tables producers such as sim.Stepper allocate, so a horizon read from an
// untrusted trace or configuration fails with ErrBadHorizon instead of an
// allocation panic.
const maxTableCells = 1 << 24

// CheckHorizon reports, as an ErrBadHorizon wrap, a horizon that is
// negative or too long to tabulate for n processes. Build calls it, and so
// does every producer that allocates horizon-indexed state before building.
func CheckHorizon(n int, horizon model.Time) error {
	// Compared before multiplying, so n*(h+1) cannot overflow.
	if horizon < 0 || horizon >= maxTableCells/n {
		return fmt.Errorf("%w: %d with %d processes (n*(horizon+1) must stay within %d)",
			ErrBadHorizon, horizon, n, maxTableCells)
	}
	return nil
}

// Build groups the events into receive batches, sorts them into tick order
// and appends them through a Recorder, which checks each one; see
// Recorder.Append for the errors. A negative or untabulable horizon fails
// with ErrBadHorizon. Build does NOT check the forced-delivery (upper bound
// deadline) discipline — call Validate on the result for full legality
// checking.
func (bl *Builder) Build() (*Run, error) {
	rc, err := NewRecorder(bl.net, bl.horizon)
	if err != nil {
		return nil, err
	}
	rc.tolerant = bl.tolerant
	rc.r.deliveries = make([]delivery, 0, len(bl.messages))
	msgs := append([]MessageEvent(nil), bl.messages...)
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.RecvTime != b.RecvTime {
			return a.RecvTime < b.RecvTime
		}
		return a.ToProc < b.ToProc
	})
	exts := append([]ExternalEvent(nil), bl.externs...)
	sort.Slice(exts, func(i, j int) bool {
		a, b := exts[i], exts[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Proc < b.Proc
	})

	// Walk both sorted logs batch by batch. A sender's node at its send
	// time is resolved against the batches appended so far: with latency
	// at least 1 it is already there, and Append reports any that is not.
	r := rc.Run()
	var arrivals []Arrival
	var labels []string
	for len(msgs) > 0 || len(exts) > 0 {
		var t model.Time
		var p model.ProcID
		switch {
		case len(exts) == 0 || len(msgs) > 0 &&
			(msgs[0].RecvTime < exts[0].Time || msgs[0].RecvTime == exts[0].Time && msgs[0].ToProc < exts[0].Proc):
			t, p = msgs[0].RecvTime, msgs[0].ToProc
		default:
			t, p = exts[0].Time, exts[0].Proc
		}
		arrivals, labels = arrivals[:0], labels[:0]
		for ; len(msgs) > 0 && msgs[0].RecvTime == t && msgs[0].ToProc == p; msgs = msgs[1:] {
			ev := msgs[0]
			arrivals = append(arrivals, Arrival{
				From: r.nodeAtExactly(ev.FromProc, ev.SendTime), Send: ev.SendTime,
				Chan: bl.net.ChanIDOf(ev.FromProc, ev.ToProc),
			})
		}
		for ; len(exts) > 0 && exts[0].Time == t && exts[0].Proc == p; exts = exts[1:] {
			labels = append(labels, exts[0].Label)
		}
		if _, err := rc.Append(p, t, arrivals, labels); err != nil {
			return nil, err
		}
	}
	return rc.Finish(), nil
}

// nodeAtExactly returns the node of process p whose time is exactly t, or
// index -1 if p has no such node (yet).
func (r *Run) nodeAtExactly(p model.ProcID, t model.Time) BasicNode {
	if !r.net.ValidProc(p) {
		return BasicNode{Proc: p, Index: -1}
	}
	b := r.NodeAt(p, t)
	if r.node(b).time != t {
		b.Index = -1
	}
	return b
}

// MustBuild is Build that panics on error.
func (bl *Builder) MustBuild() *Run {
	r, err := bl.Build()
	if err != nil {
		panic(err)
	}
	return r
}
