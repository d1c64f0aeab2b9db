// Package faults defines deterministic, seeded fault plans for the bounded
// communication model and the typed errors a violated model surfaces as.
//
// The paper's environment always delivers within each channel's [L, U]
// window; a production deployment faces environments that break that
// promise. A Plan describes, ahead of a run, exactly how the environment
// will lie: processes that crash (stop receiving, acting and sending at a
// tick), links that silently drop every message sent during a window, and
// channels whose deliveries land past their upper bound. Plans are pure
// data — the same plan threaded through sim.Simulate and live.Replay
// yields byte-identical recordings, which the differential tests pin.
//
// Every injected violation is reported as a *Violation, a typed error
// wrapping ErrBoundViolation with channel and tick context — never a panic.
// The Injector additionally maintains the taint frontier the degraded mode
// is built on: a process is degraded at tick t when its causal past could
// contain material invalidated by the plan (a claim about a dropped, late
// or discarded message), computed conservatively so that an agent that is
// NOT degraded provably decided over honest material only — which is why
// safety (no early act) survives bound violations.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/clockless/zigzag/internal/model"
)

// ErrBoundViolation is the sentinel every injected model violation wraps:
// errors.Is(err, faults.ErrBoundViolation) identifies "the environment broke
// the [L, U] promise" across all violation kinds and degraded-agent reasons.
var ErrBoundViolation = errors.New("faults: communication bound violated")

// ErrBadPlan reports a plan that does not fit the network or horizon it is
// injected into.
var ErrBadPlan = errors.New("faults: bad plan")

// FaultKind enumerates the fault primitives a Plan composes.
type FaultKind int

// The fault primitives.
const (
	// KindCrash halts a process at a tick: from then on it absorbs nothing
	// (arrivals are discarded by the environment), creates no states and
	// sends nothing. Messages it sent before crashing stay in flight,
	// governed by the rest of the plan.
	KindCrash FaultKind = iota + 1
	// KindLinkDown kills one directed channel for a window of SEND times:
	// every message sent on it during [A, B] is silently dropped.
	KindLinkDown
	// KindDeadline delays one directed channel's deliveries past the upper
	// bound: every message sent during [A, B] arrives Slack ticks after its
	// deadline (latency U+Slack) — a direct bound violation — or never, if
	// that lands beyond the horizon.
	KindDeadline
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindLinkDown:
		return "linkdown"
	case KindDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one fault primitive in a plan. Which fields matter depends on
// Kind; the constructors below build well-formed values.
type Fault struct {
	Kind FaultKind
	// Proc is the crashing process (KindCrash).
	Proc model.ProcID
	// From, To name the directed channel (KindLinkDown, KindDeadline).
	From, To model.ProcID
	// A, B bound the fault's window: crash tick (A only) for KindCrash,
	// the send-time window [A, B] for the channel faults. B == 0 means
	// "to the horizon".
	A, B model.Time
	// Slack is how far past the upper bound deliveries land (KindDeadline).
	Slack int
}

// String renders the fault compactly ("crash(3@t17)", "linkdown(2->5,[10,20])").
func (f Fault) String() string {
	switch f.Kind {
	case KindCrash:
		return fmt.Sprintf("crash(%d@t%d)", f.Proc, f.A)
	case KindLinkDown:
		return fmt.Sprintf("linkdown(%d->%d,[%d,%d])", f.From, f.To, f.A, f.B)
	case KindDeadline:
		return fmt.Sprintf("deadline(%d->%d,[%d,%d],+%d)", f.From, f.To, f.A, f.B, f.Slack)
	default:
		return fmt.Sprintf("fault(%d)", int(f.Kind))
	}
}

// Crash builds a crash fault: p halts at tick t.
func Crash(p model.ProcID, t model.Time) Fault {
	return Fault{Kind: KindCrash, Proc: p, A: t}
}

// LinkDown builds a link failure: messages sent from -> to during [a, b]
// are dropped.
func LinkDown(from, to model.ProcID, a, b model.Time) Fault {
	return Fault{Kind: KindLinkDown, From: from, To: to, A: a, B: b}
}

// Deadline builds a deadline fault: every message sent from -> to is
// delivered slack ticks past the channel's upper bound. DeadlineDuring
// limits it to a send-time window.
func Deadline(from, to model.ProcID, slack int) Fault {
	return Fault{Kind: KindDeadline, From: from, To: to, A: 1, Slack: slack}
}

// DeadlineDuring is Deadline restricted to sends during [a, b].
func DeadlineDuring(from, to model.ProcID, slack int, a, b model.Time) Fault {
	return Fault{Kind: KindDeadline, From: from, To: to, A: a, B: b, Slack: slack}
}

// Plan is a named, immutable set of faults. A Plan is safe to share across
// executions (the Injector owns all per-run state).
type Plan struct {
	Name   string
	Faults []Fault
}

// String renders the plan's name and fault count.
func (p *Plan) String() string {
	return fmt.Sprintf("%s(%d faults)", p.Name, len(p.Faults))
}

// Plan families NewPlan generates, and the chaos sweep axis enumerates.
const (
	FamilyCrash    = "crash"
	FamilyLink     = "link"
	FamilyDeadline = "deadline"
	FamilyChaos    = "chaos"
)

// Families lists the seeded plan families in canonical order: single-kind
// plans for each primitive plus the combined chaos family.
func Families() []string {
	return []string{FamilyCrash, FamilyLink, FamilyDeadline, FamilyChaos}
}

// ValidFamily reports whether NewPlan understands the named family.
func ValidFamily(family string) bool {
	switch family {
	case FamilyCrash, FamilyLink, FamilyDeadline, FamilyChaos:
		return true
	}
	return false
}

// NewPlan deterministically derives a plan of the named family for a
// network and horizon from a seed: the same inputs always yield the same
// plan, so every execution mode of a sweep cell injects identical faults.
// Fault windows land in the middle of the horizon, where the FFIP flood is
// busiest, so plans reliably fire on the registry scenarios.
func NewPlan(family string, net *model.Network, horizon model.Time, seed int64) (*Plan, error) {
	if net == nil || net.N() == 0 || horizon < 1 {
		return nil, fmt.Errorf("%w: need a network and a positive horizon", ErrBadPlan)
	}
	// Mix the family name into the seed (FNV-1a) so "crash" and "link"
	// plans of one seed are independent draws.
	h := int64(1469598103934665603)
	for _, c := range family {
		h = (h ^ int64(c)) * 1099511628211
	}
	rng := rand.New(rand.NewSource(seed ^ h))
	procs := net.Procs()
	arcs := net.Arcs()
	if len(arcs) == 0 {
		return nil, fmt.Errorf("%w: network has no channels", ErrBadPlan)
	}

	span := func(lo, hi model.Time) model.Time { // uniform in [lo, hi], clamped to [1, horizon]
		if hi < lo {
			hi = lo
		}
		t := lo + model.Time(rng.Intn(int(hi-lo)+1))
		if t < 1 {
			t = 1
		}
		if t > horizon {
			t = horizon
		}
		return t
	}
	window := func() (model.Time, model.Time) {
		a := span(horizon/4, horizon/2)
		b := span(a, a+horizon/4)
		return a, b
	}
	crashes := func(fs []Fault) []Fault {
		k := 1 + rng.Intn(1+len(procs)/6)
		for i := 0; i < k; i++ {
			p := procs[rng.Intn(len(procs))]
			fs = append(fs, Crash(p, span(horizon/3, 2*horizon/3)))
		}
		return fs
	}
	links := func(fs []Fault) []Fault {
		k := 1 + rng.Intn(2)
		for i := 0; i < k; i++ {
			a := arcs[rng.Intn(len(arcs))]
			w0, w1 := window()
			fs = append(fs, LinkDown(a.From, a.To, w0, w1))
		}
		return fs
	}
	deadlines := func(fs []Fault) []Fault {
		k := 1 + rng.Intn(2)
		for i := 0; i < k; i++ {
			a := arcs[rng.Intn(len(arcs))]
			w0, w1 := window()
			fs = append(fs, DeadlineDuring(a.From, a.To, 1+rng.Intn(3), w0, w1))
		}
		return fs
	}

	var fs []Fault
	switch family {
	case FamilyCrash:
		fs = crashes(fs)
	case FamilyLink:
		fs = links(fs)
	case FamilyDeadline:
		fs = deadlines(fs)
	case FamilyChaos:
		fs = crashes(fs)
		fs = links(fs)
		fs = deadlines(fs)
	default:
		return nil, fmt.Errorf("%w: unknown family %q (want %v)", ErrBadPlan, family, Families())
	}
	return &Plan{Name: fmt.Sprintf("%s-s%d", family, seed), Faults: fs}, nil
}

// ViolationKind classifies how an obligation was broken.
type ViolationKind int

// The violation kinds.
const (
	// Dropped: the message was never delivered inside its window — a dead
	// link swallowed it, or a deadline fault pushed it past the horizon.
	Dropped ViolationKind = iota + 1
	// Late: the message was delivered after its upper-bound deadline.
	Late
	// Discarded: the message reached a crashed process and was thrown away.
	Discarded
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case Dropped:
		return "dropped"
	case Late:
		return "late"
	case Discarded:
		return "discarded"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is one broken delivery obligation, as a typed error: it wraps
// ErrBoundViolation and carries the channel, the send time and the tick the
// violation materialized at. The injector records one per affected message;
// Report returns them in canonical (At, SendTime, From, To) order, so all
// execution modes agree on the list byte for byte.
type Violation struct {
	Kind     ViolationKind
	Chan     model.ChanID
	From, To model.ProcID
	SendTime model.Time
	// At is when the violation materialized: the missed deadline + 1 for
	// Dropped (possibly past the horizon), the delivery instant for Late
	// and Discarded.
	At model.Time
	// Bounds are the violated channel's declared bounds.
	Bounds model.Bounds
	// Latency is the achieved latency (Late only).
	Latency int
}

// Error implements error.
func (v *Violation) Error() string {
	switch v.Kind {
	case Late:
		return fmt.Sprintf("faults: message %d->%d sent at %d delivered at %d: latency %d outside %s",
			v.From, v.To, v.SendTime, v.At, v.Latency, v.Bounds)
	case Discarded:
		return fmt.Sprintf("faults: message %d->%d sent at %d discarded at %d: receiver crashed",
			v.From, v.To, v.SendTime, v.At)
	default:
		return fmt.Sprintf("faults: message %d->%d sent at %d dropped: undelivered past deadline %d",
			v.From, v.To, v.SendTime, v.SendTime+model.Time(v.Bounds.Upper))
	}
}

// Unwrap makes errors.Is(v, ErrBoundViolation) true.
func (v *Violation) Unwrap() error { return ErrBoundViolation }

// Report is the settled outcome of a faulted execution: every injected
// violation plus the processes the plan crashed and the taint frontier
// flagged as degraded by the horizon. sim.SimulateFaulty and live.Replay
// produce identical reports for one (plan, configuration) pair.
type Report struct {
	// Violations lists every broken obligation in canonical order.
	Violations []*Violation
	// Degraded lists the (non-crashed) processes whose causal past could
	// contain plan-invalidated material by the horizon, in id order.
	Degraded []model.ProcID
	// Crashed lists the processes the plan halted within the horizon, in
	// id order.
	Crashed []model.ProcID
}

func sortViolations(vs []*Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.SendTime != b.SendTime {
			return a.SendTime < b.SendTime
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
}
