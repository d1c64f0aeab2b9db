package run

import "fmt"

// Validate checks that the recording is the prefix of a legal run of the
// FFIP in the bounded context:
//
//  1. node times start at 0 and strictly increase along each timeline, and
//     never exceed the horizon;
//  2. every non-initial node is created by at least one receipt (message or
//     external); initial nodes receive nothing;
//  3. every delivery travels an existing channel, is sent by a non-initial
//     node at that node's time, and its latency lies within [L, U];
//  4. the environment never misses a deadline: a message sent at time t on a
//     channel with upper bound U is delivered by t+U whenever t+U lies
//     within the horizon (FFIP sends on every outgoing channel at every
//     non-initial node);
//  5. at most one message per (node, channel);
//  6. externals land on non-initial nodes at the node's time.
//
// Build establishes most of these by construction; Validate re-checks them
// all independently so that synthesized runs (slow/fast constructions) are
// audited end to end.
func (r *Run) Validate() error {
	net := r.net
	// 1. Timeline monotonicity.
	for _, p := range net.Procs() {
		ns := r.nodes[p-1]
		if len(ns) == 0 || ns[0].time != 0 {
			return fmt.Errorf("%w: process %d has no initial node at time 0", ErrNonMonotoneTimes, p)
		}
		for k := 1; k < len(ns); k++ {
			if ns[k].time <= ns[k-1].time {
				return fmt.Errorf("%w: process %d node %d at %d after node %d at %d",
					ErrNonMonotoneTimes, p, k, ns[k].time, k-1, ns[k-1].time)
			}
			if ns[k].time > r.horizon {
				return fmt.Errorf("%w: node %s at %d", ErrOutsideHorizon, BasicNode{Proc: p, Index: k}, ns[k].time)
			}
		}
	}

	// 2. Node creation discipline.
	for _, p := range net.Procs() {
		for k := 0; k <= r.LastIndex(p); k++ {
			b := BasicNode{Proc: p, Index: k}
			in, ext := r.node(b).in, r.node(b).ext
			receipts := int(in.hi-in.lo) + int(ext.hi-ext.lo)
			if k == 0 && receipts != 0 {
				return fmt.Errorf("run: initial node %s has %d receipts", b, receipts)
			}
			if k > 0 && receipts == 0 {
				return fmt.Errorf("%w: %s", ErrOrphanNode, b)
			}
		}
	}

	// 3. Delivery legality. The record keeps the sender and the channel id;
	// the channel is re-resolved from the sender and the channel's head —
	// which must give back the recorded id — and the times are the
	// endpoint nodes', which must lie within the channel's window.
	for _, rec := range r.deliveries {
		from := rec.sender()
		if rec.ch < 0 || int(rec.ch) >= net.NumChannels() {
			return fmt.Errorf("%w: %s on channel id %d", ErrChannelMissing, from, rec.ch)
		}
		to := r.receiverOf(rec)
		if cid := net.ChanIDOf(from.Proc, to.Proc); cid != rec.ch {
			return fmt.Errorf("%w: %s->%d carries channel id %d, want %d", ErrChannelMissing, from, to.Proc, rec.ch, cid)
		}
		if from.IsInitial() {
			return fmt.Errorf("%w: %s->%d", ErrInitialSend, from, to.Proc)
		}
		if !r.Appears(from) || !r.Appears(to) {
			return fmt.Errorf("run: delivery %s -> %s: %w", from, to, ErrNoNode)
		}
		d := r.expand(rec)
		if slot := r.sentAt(from, rec.ch); *slot < 0 || r.deliveries[*slot] != rec {
			return fmt.Errorf("%w: %s", ErrDuplicateSend, d)
		}
		bd := net.BoundsOf(rec.ch)
		if lat := d.RecvTime - d.SendTime; lat < bd.Lower || lat > bd.Upper {
			return fmt.Errorf("%w: %s latency %d outside %s", ErrBadDelivery, d, lat, bd)
		}
	}

	// 4+5. Forced-delivery discipline and single send per channel.
	for _, p := range net.Procs() {
		for k := 1; k <= r.LastIndex(p); k++ {
			from := BasicNode{Proc: p, Index: k}
			st := r.nodes[p-1][k].time
			for _, a := range net.OutArcs(p) {
				_, delivered := r.DeliveryFrom(from, a.To)
				if !delivered && st+a.Bounds.Upper <= r.horizon {
					return fmt.Errorf("%w: message %s->%d sent at %d, deadline %d, horizon %d",
						ErrMissedDeadline, from, a.To, st, st+a.Bounds.Upper, r.horizon)
				}
			}
		}
	}

	// 6. Externals.
	for _, e := range r.externals {
		if e.To.IsInitial() {
			return fmt.Errorf("%w: %s", ErrExternalToInitial, e)
		}
		t, err := r.Time(e.To)
		if err != nil {
			return fmt.Errorf("run: external %s: %w", e, err)
		}
		if t != e.Time {
			return fmt.Errorf("%w: external %s node time %d", ErrTimeMismatch, e, t)
		}
	}
	return nil
}
