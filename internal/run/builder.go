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

// Builder assembles a Run from raw timed events. Node indices are derived:
// every distinct time at which a process receives something (messages and/or
// externals) becomes one batch, creating one new basic node. The builder is
// used by the simulator and by the run-synthesis constructions of
// internal/timing (Lemma 8 run-by-timing, Definition 24 fast run).
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

// Tolerate relaxes Build's per-delivery latency-window check to latency >= 1,
// admitting recordings of fault-injected executions whose deliveries may
// violate their channel's [L, U] bounds (internal/faults deadline plans).
// All structural checks — channels exist, nodes exist, no duplicate sends,
// horizon — still apply; dropped messages simply surface as Pending. Such a
// run will generally fail Validate, which is the point: the faults injector,
// not the builder, owns violation accounting for faulted runs.
func (bl *Builder) Tolerate() *Builder {
	bl.tolerant = true
	return bl
}

// maxTableCells caps n*(horizon+1), the length of Build's horizon-indexed
// tables (about 80 MB of them at the cap), so a horizon read from an
// untrusted trace fails with ErrBadHorizon instead of an allocation panic.
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

// Build derives node indices, wires deliveries to nodes and returns the Run.
// It fails if any event is inconsistent (bad channel, bad times, sender has
// no node at the send time, event beyond horizon) or if the horizon is
// negative or too long to tabulate (ErrBadHorizon). Build does NOT check
// the forced-delivery (upper bound deadline) discipline — call Validate on
// the result for full legality checking.
func (bl *Builder) Build() (*Run, error) {
	n := bl.net.N()
	h := int(bl.horizon)
	if err := CheckHorizon(n, bl.horizon); err != nil {
		return nil, err
	}

	// 1. Collect the receive times of every process in horizon-indexed
	// bitmaps (one shared backing array; no per-process maps).
	recvBacking := make([]bool, n*(h+1))
	recv := make([][]bool, n)
	for i := range recv {
		recv[i] = recvBacking[i*(h+1) : (i+1)*(h+1)]
	}
	counts := make([]int, n)
	note := func(p model.ProcID, t model.Time) error {
		if !bl.net.ValidProc(p) {
			return fmt.Errorf("%w: process %d", model.ErrBadProc, p)
		}
		if t < 1 {
			return fmt.Errorf("run: time %d: receipts start at time 1", t)
		}
		if t > bl.horizon {
			return fmt.Errorf("%w: time %d > horizon %d", ErrOutsideHorizon, t, bl.horizon)
		}
		if !recv[p-1][t] {
			recv[p-1][t] = true
			counts[p-1]++
		}
		return nil
	}
	for _, ev := range bl.messages {
		if err := note(ev.ToProc, ev.RecvTime); err != nil {
			return nil, fmt.Errorf("delivery %d->%d: %w", ev.FromProc, ev.ToProc, err)
		}
	}
	for _, ev := range bl.externs {
		if err := note(ev.Proc, ev.Time); err != nil {
			return nil, fmt.Errorf("external %q: %w", ev.Label, err)
		}
	}

	// 2. Assign node indices per process: index 0 at time 0, then one node
	// per distinct receive time in ascending order. nodeAt[i][t] is the
	// index of process i+1's node created at time t (0 = none).
	total := n
	for _, c := range counts {
		total += c
	}
	r := &Run{
		net:      bl.net,
		horizon:  bl.horizon,
		times:    make([][]model.Time, n),
		nodeOff:  make([]int32, n+1),
		inbox:    make([]span, total),
		extIn:    make(map[BasicNode][]int, len(bl.externs)),
		extFirst: make(map[extKey]int, len(bl.externs)),
		sentOff:  make([]int32, n),
	}
	nodeBacking := make([]int32, n*(h+1))
	nodeAt := make([][]int32, n)
	timeBacking := make([]model.Time, 0, total)
	for i := 0; i < n; i++ {
		nodeAt[i] = nodeBacking[i*(h+1) : (i+1)*(h+1)]
		r.nodeOff[i+1] = r.nodeOff[i] + int32(counts[i]) + 1
		start := len(timeBacking)
		timeBacking = append(timeBacking, 0)
		k := int32(0)
		for t := 1; t <= h; t++ {
			if recv[i][t] {
				k++
				nodeAt[i][t] = k
				timeBacking = append(timeBacking, model.Time(t))
			}
		}
		r.times[i] = timeBacking[start:len(timeBacking):len(timeBacking)]
	}
	sends := int32(0)
	for i := 0; i < n; i++ {
		r.sentOff[i] = sends
		sends += (int32(counts[i]) + 1) * int32(len(bl.net.OutArcs(model.ProcID(i+1))))
	}
	r.sent = make([]int32, sends)
	for i := range r.sent {
		r.sent[i] = -1
	}

	// 3. Wire deliveries. The sent table doubles as the duplicate-send
	// check; its indices are fixed up after sorting below.
	r.deliveries = make([]Delivery, 0, len(bl.messages))
	for _, ev := range bl.messages {
		cid := bl.net.ChanIDOf(ev.FromProc, ev.ToProc)
		if cid == model.NoChan {
			return nil, fmt.Errorf("%w: %d->%d", ErrChannelMissing, ev.FromProc, ev.ToProc)
		}
		if ev.SendTime == 0 {
			return nil, fmt.Errorf("%w: send at time 0 by process %d", ErrInitialSend, ev.FromProc)
		}
		var fromIdx int32
		if ev.SendTime >= 1 && int(ev.SendTime) <= h {
			fromIdx = nodeAt[ev.FromProc-1][ev.SendTime]
		}
		if fromIdx == 0 {
			return nil, fmt.Errorf("run: process %d has no node at send time %d", ev.FromProc, ev.SendTime)
		}
		from := BasicNode{Proc: ev.FromProc, Index: int(fromIdx)}
		to := BasicNode{Proc: ev.ToProc, Index: int(nodeAt[ev.ToProc-1][ev.RecvTime])}
		d := Delivery{From: from, To: to, SendTime: ev.SendTime, RecvTime: ev.RecvTime, Chan: cid}
		bd := bl.net.BoundsOf(cid)
		lat := ev.RecvTime - ev.SendTime
		if bl.tolerant {
			if lat < 1 {
				return nil, fmt.Errorf("%w: %s latency %d < 1", ErrBadDelivery, d, lat)
			}
		} else if lat < bd.Lower || lat > bd.Upper {
			return nil, fmt.Errorf("%w: %s latency %d outside %s", ErrBadDelivery, d, lat, bd)
		}
		slot := r.sentIndex(from, cid)
		if r.sent[slot] >= 0 {
			return nil, fmt.Errorf("%w: %s to %d", ErrDuplicateSend, from, ev.ToProc)
		}
		r.sent[slot] = 0
		r.deliveries = append(r.deliveries, d)
	}
	r.externals = make([]External, 0, len(bl.externs))
	for _, ev := range bl.externs {
		to := BasicNode{Proc: ev.Proc, Index: int(nodeAt[ev.Proc-1][ev.Time])}
		idx := len(r.externals)
		r.externals = append(r.externals, External{To: to, Time: ev.Time, Label: ev.Label})
		r.extIn[to] = append(r.extIn[to], idx)
		key := extKey{proc: ev.Proc, label: ev.Label}
		if k, ok := r.extFirst[key]; !ok || to.Index < k {
			r.extFirst[key] = to.Index
		}
	}

	// 4. Derive pending messages: every non-initial node sends on every
	// outgoing channel under FFIP; sends without a recorded delivery are
	// still in transit. Only presence in sent matters here, so this can run
	// before the indices are fixed up.
	for p := model.ProcID(1); int(p) <= n; p++ {
		arcs := bl.net.OutArcs(p)
		for k := 1; k <= r.LastIndex(p); k++ {
			from := BasicNode{Proc: p, Index: k}
			st := r.times[p-1][k]
			row := r.sent[int(r.sentOff[p-1])+k*len(arcs):]
			for j, a := range arcs {
				if row[j] < 0 {
					r.pending = append(r.pending, Pending{From: from, To: a.To, SendTime: st, Chan: a.ID})
				}
			}
		}
	}
	sort.Slice(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		if a.SendTime != b.SendTime {
			return a.SendTime < b.SendTime
		}
		if a.From.Proc != b.From.Proc {
			return a.From.Proc < b.From.Proc
		}
		return a.To < b.To
	})
	sort.Slice(r.deliveries, func(i, j int) bool {
		a, b := r.deliveries[i], r.deliveries[j]
		if a.RecvTime != b.RecvTime {
			return a.RecvTime < b.RecvTime
		}
		if a.To.Proc != b.To.Proc {
			return a.To.Proc < b.To.Proc
		}
		if a.From.Proc != b.From.Proc {
			return a.From.Proc < b.From.Proc
		}
		// Two messages on one channel can share a receive batch (sent at
		// different instants); SendTime makes the key total, so the
		// recorded order is independent of event insertion order — the
		// environment loops of sim and live interleave differently.
		return a.SendTime < b.SendTime
	})
	// Re-index after sorting deliveries. Deliveries into one node share its
	// (RecvTime, To.Proc) batch key, so after the sort each inbox is one
	// contiguous span.
	for idx, d := range r.deliveries {
		r.sent[r.sentIndex(d.From, d.Chan)] = int32(idx)
		sp := &r.inbox[r.flat(d.To)]
		if sp.hi == sp.lo {
			sp.lo, sp.hi = int32(idx), int32(idx+1)
		} else {
			sp.hi = int32(idx + 1)
		}
	}
	// Content fingerprint over the canonical event log: deliveries in the
	// arrival order just established and externals in recorded order. The
	// sort above makes the hash independent of event insertion order, so the
	// interleaving differences between the sim and live environment loops
	// cannot split fingerprints of byte-identical recordings.
	fph := fpMix(fpSeed(bl.net), uint64(bl.horizon))
	for _, d := range r.deliveries {
		fph = fpDelivery(fph, d)
	}
	for _, e := range r.externals {
		fph = fpExternal(fph, e)
	}
	r.fingerprint = fpFinish(fph)
	return r, nil
}

// MustBuild is Build that panics on error.
func (bl *Builder) MustBuild() *Run {
	r, err := bl.Build()
	if err != nil {
		panic(err)
	}
	return r
}
