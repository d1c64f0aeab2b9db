package faults

import (
	"fmt"

	"github.com/clockless/zigzag/internal/model"
)

// window is an inclusive send-time interval a channel fault applies to.
type window struct {
	a, b model.Time
}

func (w window) contains(t model.Time) bool { return w.a <= t && t <= w.b }

// dlRule is a deadline fault compiled onto one channel.
type dlRule struct {
	window
	slack int
}

// Injector executes one Plan against one (network, horizon) pair. sim.Stepper
// consults it at fixed hook points — schedule time (Dead destinations,
// SendDrop, Delay, Discard), delivery time (Deliver) and state time
// (DegradedAt).
//
// Besides applying the plan it maintains the conservative taint frontier:
// taintedAt[p] is the earliest tick at which p's causal past may include a
// claim about a message the plan invalidated, and silencedAt[p] the earliest
// tick at which p has provably NOT received something the bounds promised it
// by. A process is degraded once either frontier has passed. The frontiers
// are seeded clairvoyantly from the static plan (a sender is tainted from
// the start of any window in which its sends can be dropped, delayed or
// discarded) and then propagated causally along real deliveries, which makes
// them monotone min-updates — commutative, hence order-independent across
// the modes' different per-tick processing orders.
//
// An Injector is single-run, single-goroutine state: create one per
// execution via NewInjector and do not share it.
type Injector struct {
	net *model.Network
	hor model.Time

	// Per-process frontiers; model.Infinity = never.
	crashAt    []model.Time
	taintedAt  []model.Time
	silencedAt []model.Time

	// Per-channel compiled rules, indexed by ChanID.
	link [][]window
	dl   [][]dlRule

	violations []*Violation
}

// NewInjector validates the plan against the network and horizon, compiles
// its channel rules and seeds the taint frontier. A plan naming an unknown
// process or channel, or carrying an empty window or non-positive slack,
// yields an ErrBadPlan-wrapped error.
func NewInjector(p *Plan, net *model.Network, hor model.Time) (*Injector, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrBadPlan)
	}
	if net == nil || hor < 1 {
		return nil, fmt.Errorf("%w: need a network and a positive horizon", ErrBadPlan)
	}
	n := net.N()
	inj := &Injector{
		net:        net,
		hor:        hor,
		crashAt:    make([]model.Time, n+1),
		taintedAt:  make([]model.Time, n+1),
		silencedAt: make([]model.Time, n+1),
		link:       make([][]window, len(net.Arcs())),
		dl:         make([][]dlRule, len(net.Arcs())),
	}
	// Process ids are 1-based; index 0 stays at its zero value unused.
	for i := 0; i <= n; i++ {
		inj.crashAt[i] = model.Infinity
		inj.taintedAt[i] = model.Infinity
		inj.silencedAt[i] = model.Infinity
	}
	minT := func(dst *model.Time, t model.Time) {
		if t < *dst {
			*dst = t
		}
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case KindCrash:
			if !net.ValidProc(f.Proc) {
				return nil, fmt.Errorf("%w: %s: unknown process", ErrBadPlan, f)
			}
			if f.A < 1 {
				return nil, fmt.Errorf("%w: %s: crash tick must be >= 1", ErrBadPlan, f)
			}
			minT(&inj.crashAt[f.Proc], f.A)
		case KindLinkDown, KindDeadline:
			id := net.ChanIDOf(f.From, f.To)
			if id == model.NoChan {
				return nil, fmt.Errorf("%w: %s: no such channel", ErrBadPlan, f)
			}
			a, b := f.A, f.B
			if b == 0 {
				b = hor
			}
			if a < 1 || b < a {
				return nil, fmt.Errorf("%w: %s: empty window", ErrBadPlan, f)
			}
			if f.Kind == KindLinkDown {
				inj.link[id] = append(inj.link[id], window{a, b})
			} else {
				if f.Slack < 1 {
					return nil, fmt.Errorf("%w: %s: slack must be >= 1", ErrBadPlan, f)
				}
				inj.dl[id] = append(inj.dl[id], dlRule{window{a, b}, f.Slack})
			}
			// Clairvoyant seed: from the window's start the sender may be
			// building knowledge claims on sends the plan will invalidate.
			minT(&inj.taintedAt[f.From], a)
		default:
			return nil, fmt.Errorf("%w: unknown fault kind %d", ErrBadPlan, int(f.Kind))
		}
	}
	// A crash at c invalidates every in-flight message to the crashed
	// process; its senders may have claimed those deliveries as early as
	// send time c-U, so taint each in-neighbor from max(1, c-U).
	arcs := net.Arcs()
	for q := 1; q <= n; q++ {
		c := inj.crashAt[q]
		if c >= model.Infinity {
			continue
		}
		for _, id := range net.InIDs(model.ProcID(q)) {
			a := arcs[id]
			from := c - model.Time(a.Bounds.Upper)
			if from < 1 {
				from = 1
			}
			minT(&inj.taintedAt[a.From], from)
		}
	}
	return inj, nil
}

// Active reports whether the plan carries any fault at all.
func (inj *Injector) Active() bool { return inj != nil }

// Dead reports whether process p has crashed at or before tick t. Execution
// modes consult it when scheduling (a message to a dead destination is
// discarded at flood time, identically in all modes) and when recording
// externals.
func (inj *Injector) Dead(p model.ProcID, t model.Time) bool {
	return inj.crashAt[p] <= t
}

// SendDrop reports whether a message sent on channel id at tick t falls in
// a dead-link window. If so it records the Dropped violation (materializing
// at the missed deadline t+U+1) and silences the receiver from that tick —
// the receiver can then prove, once the deadline passes, that the bound was
// broken.
func (inj *Injector) SendDrop(id model.ChanID, from, to model.ProcID, t model.Time) bool {
	for _, w := range inj.link[id] {
		if w.contains(t) {
			bd := inj.net.BoundsOf(id)
			deadline := t + model.Time(bd.Upper)
			inj.violations = append(inj.violations, &Violation{
				Kind: Dropped, Chan: id, From: from, To: to,
				SendTime: t, At: deadline + 1, Bounds: bd,
			})
			if deadline+1 <= inj.hor && deadline+1 < inj.silencedAt[to] {
				inj.silencedAt[to] = deadline + 1
			}
			return true
		}
	}
	return false
}

// Delay returns the latency a message sent on channel id at tick t actually
// achieves: the policy's choice lat, or U+slack if a deadline fault covers
// the send. A delayed delivery silences the receiver from the missed
// deadline t+U+1 — the earliest tick any engine can structurally refute the
// bound (a proof needs a lower-bound path exceeding U, and lower bounds
// never outrun real time), so silencing there guarantees the receiver
// withholds before its knowledge graph turns inconsistent. When the delayed
// delivery would land past the horizon the message is effectively dropped
// and the violation is recorded here (the delivery hook will never see it).
func (inj *Injector) Delay(id model.ChanID, from, to model.ProcID, t model.Time, lat int) int {
	for _, r := range inj.dl[id] {
		if r.contains(t) {
			bd := inj.net.BoundsOf(id)
			lat = bd.Upper + r.slack
			deadline := t + model.Time(bd.Upper)
			if deadline+1 <= inj.hor && deadline+1 < inj.silencedAt[to] {
				inj.silencedAt[to] = deadline + 1
			}
			if t+model.Time(lat) > inj.hor {
				inj.violations = append(inj.violations, &Violation{
					Kind: Dropped, Chan: id, From: from, To: to,
					SendTime: t, At: deadline + 1, Bounds: bd,
				})
			}
			return lat
		}
	}
	return lat
}

// Discard records that a message scheduled to arrive at a crashed process
// was thrown away at recv. The stepper calls it from the flood loop (the
// crash schedule is static, so the discard is known at send time), so the
// arrival never materializes.
func (inj *Injector) Discard(id model.ChanID, from, to model.ProcID, send, recv model.Time) {
	bd := inj.net.BoundsOf(id)
	inj.violations = append(inj.violations, &Violation{
		Kind: Discarded, Chan: id, From: from, To: to,
		SendTime: send, At: recv, Bounds: bd,
	})
}

// Deliver observes a real delivery: it propagates taint causally (a message
// sent at or after the sender's taint carries the taint to the receiver at
// recv) and, when the delivery itself broke the upper bound, records the
// Late violation, taints the receiver immediately and marks it silenced
// from the missed deadline (it verifiably waited past U).
func (inj *Injector) Deliver(id model.ChanID, from, to model.ProcID, send, recv model.Time) {
	if inj.taintedAt[from] <= send && recv < inj.taintedAt[to] {
		inj.taintedAt[to] = recv
	}
	bd := inj.net.BoundsOf(id)
	if lat := int(recv - send); lat > bd.Upper {
		inj.violations = append(inj.violations, &Violation{
			Kind: Late, Chan: id, From: from, To: to,
			SendTime: send, At: recv, Bounds: bd, Latency: lat,
		})
		if recv < inj.taintedAt[to] {
			inj.taintedAt[to] = recv
		}
		deadline := send + model.Time(bd.Upper)
		if deadline+1 <= inj.hor && deadline+1 < inj.silencedAt[to] {
			inj.silencedAt[to] = deadline + 1
		}
	}
}

// DegradedAt reports whether process p must withhold actions at tick t:
// its causal past may contain plan-invalidated material (tainted), or it
// can prove a promised delivery never came (silenced). Crashing is not
// degradation — a crashed process does not act at all.
func (inj *Injector) DegradedAt(p model.ProcID, t model.Time) bool {
	return inj.taintedAt[p] <= t || inj.silencedAt[p] <= t
}

// DegradeReason builds the typed error a degraded agent reports, wrapping
// ErrBoundViolation with the process and the tick degradation began.
func (inj *Injector) DegradeReason(p model.ProcID, t model.Time) error {
	since, why := inj.taintedAt[p], "knowledge may rest on a violated bound"
	if inj.silencedAt[p] < since {
		since, why = inj.silencedAt[p], "a promised delivery missed its deadline"
	}
	return fmt.Errorf("%w: process %d degraded at tick %d (since tick %d: %s)",
		ErrBoundViolation, p, t, since, why)
}

// Report settles the execution's outcome: violations in canonical order,
// crashed processes, and the processes left degraded (but not crashed) at
// the horizon. Call it once, after the run's final tick.
func (inj *Injector) Report() *Report {
	r := &Report{}
	if len(inj.violations) > 0 {
		r.Violations = make([]*Violation, len(inj.violations))
		copy(r.Violations, inj.violations)
		sortViolations(r.Violations)
	}
	for p := 1; p <= inj.net.N(); p++ {
		if inj.crashAt[p] <= inj.hor {
			r.Crashed = append(r.Crashed, model.ProcID(p))
		} else if inj.DegradedAt(model.ProcID(p), inj.hor) {
			r.Degraded = append(r.Degraded, model.ProcID(p))
		}
	}
	return r
}
