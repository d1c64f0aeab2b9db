// Package sim is the discrete-event simulator for the bounded communication
// model: an environment scheduler that delivers every message within its
// channel's [L, U] window (and *must* deliver once U elapses), driving
// processes that follow the flooding full-information protocol (FFIP). The
// choice of delivery instant within the window is delegated to a Policy,
// which plays the role of the nondeterministic environment of the paper.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Send identifies one FFIP message: the sender process, the destination
// process and the instant it was sent. Under an FFIP each non-initial node
// sends exactly one message per outgoing channel, and a process has at most
// one node per instant, so this triple is a unique message id.
type Send struct {
	From     model.ProcID
	To       model.ProcID
	SendTime model.Time
}

// Policy chooses message latencies for the environment. Implementations
// must return a latency within [b.Lower, b.Upper]; the simulator rejects
// anything else. Policies must be deterministic functions of their own
// state and the Send so that simulations are reproducible.
type Policy interface {
	// Latency returns the transit time for the message s on a channel with
	// bounds b.
	Latency(s Send, b model.Bounds) int
	// Name returns a short identifier for reports.
	Name() string
}

// Eager delivers every message at its lower bound. This is the "fast"
// extreme of the environment.
type Eager struct{}

// Latency implements Policy.
func (Eager) Latency(_ Send, b model.Bounds) int { return b.Lower }

// Name implements Policy.
func (Eager) Name() string { return "eager" }

// Lazy delivers every message at its upper bound (the deadline), the "slow"
// extreme of the environment.
type Lazy struct{}

// Latency implements Policy.
func (Lazy) Latency(_ Send, b model.Bounds) int { return b.Upper }

// Name implements Policy.
func (Lazy) Name() string { return "lazy" }

// Random draws latencies uniformly from [L, U] using a seeded generator; the
// same seed yields the same run. The zero value is not usable; use NewRandom.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random policy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Latency implements Policy.
func (r *Random) Latency(_ Send, b model.Bounds) int {
	if b.Upper == b.Lower {
		return b.Lower
	}
	return b.Lower + r.rng.Intn(b.Upper-b.Lower+1)
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// HeavyTail draws latencies from a heavy-tailed distribution over [L, U]:
// most messages arrive at or near the lower bound, but a seeded minority
// straggles all the way to the deadline (extra = floor((span+1)·u³) for
// uniform u, truncated to the window). It models the asymmetric networks the
// paper's bounds are interesting for — fast common case, slow tail — and
// drives the long-horizon coord-heavy-m family. The zero value is not
// usable; use NewHeavyTail.
type HeavyTail struct {
	rng *rand.Rand
}

// NewHeavyTail returns a HeavyTail policy with the given seed.
func NewHeavyTail(seed int64) *HeavyTail {
	return &HeavyTail{rng: rand.New(rand.NewSource(seed))}
}

// Latency implements Policy.
func (h *HeavyTail) Latency(_ Send, b model.Bounds) int {
	span := b.Upper - b.Lower
	if span == 0 {
		return b.Lower
	}
	u := h.rng.Float64()
	extra := int(float64(span+1) * u * u * u)
	if extra > span {
		extra = span
	}
	return b.Lower + extra
}

// Name implements Policy.
func (h *HeavyTail) Name() string { return "heavy" }

// Func adapts a function to a Policy; useful for custom adversaries in
// tests and experiments.
type Func struct {
	F  func(s Send, b model.Bounds) int
	ID string
}

// Latency implements Policy.
func (f Func) Latency(s Send, b model.Bounds) int { return f.F(s, b) }

// Name implements Policy.
func (f Func) Name() string {
	if f.ID == "" {
		return "func"
	}
	return f.ID
}

// Timed assigns prescribed latencies to specific messages and defers to a
// fallback policy for the rest. It is the instrument used by the run
// synthesis constructions (slow run of Lemma 8, fast run of Definition 24)
// to realize a valid timing function as an actual simulated run.
type Timed struct {
	// Latencies maps message ids to latencies.
	Latencies map[Send]int
	// Fallback handles messages not in the map; defaults to Lazy if nil.
	Fallback Policy
}

// Latency implements Policy.
func (t *Timed) Latency(s Send, b model.Bounds) int {
	if lat, ok := t.Latencies[s]; ok {
		return lat
	}
	fb := t.Fallback
	if fb == nil {
		fb = Lazy{}
	}
	return fb.Latency(s, b)
}

// Name implements Policy.
func (t *Timed) Name() string { return "timed" }

// Replay reproduces the latencies of an existing run exactly, deferring to
// fallback (Lazy if nil) for messages the original run never delivered.
func Replay(r *run.Run, fallback Policy) *Timed {
	ds := r.Deliveries()
	lat := make(map[Send]int, len(ds))
	for _, d := range ds {
		lat[Send{From: d.From.Proc, To: d.To.Proc, SendTime: d.SendTime}] = d.RecvTime - d.SendTime
	}
	return &Timed{Latencies: lat, Fallback: fallback}
}

// validateLatency checks a policy's choice against the channel bounds.
func validateLatency(p Policy, s Send, b model.Bounds, lat int) error {
	if lat < b.Lower || lat > b.Upper {
		return fmt.Errorf("sim: policy %q chose latency %d outside %s for %d->%d at %d",
			p.Name(), lat, b, s.From, s.To, s.SendTime)
	}
	return nil
}
