package sim

import (
	"fmt"
	"runtime"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// inFlight is one scheduled delivery while it waits in its horizon bucket,
// in 12 bytes: the sender's state index, the send time and the channel,
// whose endpoints are the sender's and the receiver's processes. It becomes
// a run.Arrival when its tick comes.
type inFlight struct {
	fromIndex int32
	send      int32
	ch        model.ChanID
}

// Batch is one receive batch: everything process Proc receives at tick
// Time, which moves it to its next state Node.
type Batch struct {
	Proc model.ProcID
	Time model.Time
	// Node is the state the batch creates, as recorded in the run: a
	// process's states are numbered 1, 2, ... in batch order.
	Node run.BasicNode
	// Externals are the batch's external labels in configuration order,
	// reused by the next Step. Its deliveries are recorded in the run
	// (run.Run.Inbox of Node).
	Externals []string
	// Degraded reports that the fault injector's taint frontier covers the
	// batch: the process's knowledge may rest on a violated bound. Always
	// false without a fault plan.
	Degraded bool
}

// Stepper is the environment of Section 2.1, one tick at a time: it
// delivers every FFIP flood at the instant the Policy picks within the
// channel's [L, U], moves every process that receives something at a tick
// to one new state, records the run and applies the fault plan. Each
// batch is appended to the run (run.Recorder) as it is scheduled, in tick
// order, so the run is the one recording of the execution: Simulate steps
// the stepper to the horizon and finishes the run; live.Replay moves its
// agents' views over the run while it grows.
//
// Stepping a tick at a time is exact because every latency is at least 1:
// an arrival at tick t comes from a state created strictly before t, so a
// tick's batches depend only on earlier ticks, and scheduling never depends
// on what consumers do with the batches.
//
// Each flood applies the fault hooks in one fixed order: dead-link drop,
// then the policy's latency, then a deadline delay, then the horizon cut,
// then the discard of messages whose destination has crashed by arrival.
// Messages delivered into a crashed process therefore never materialize.
type Stepper struct {
	net    *model.Network
	policy Policy
	hor    model.Time
	inj    *faults.Injector // nil for fault-free executions
	rec    *run.Recorder
	scratch

	t model.Time // next tick to process
}

// scratch is a stepper's schedule storage. None of it escapes the
// stepper (batches are valid until the next Step), so Finish hands it to
// the next NewStepper through freeScratch.
type scratch struct {
	arrivals [][]inFlight // horizon-indexed buckets
	free     [][]inFlight // recycled bucket backing
	extAt    [][]run.ExternalEvent

	procArr [][]run.Arrival // per-process slab for the current tick
	procExt [][]string
	batches []Batch
}

// freeScratch holds the scratch of finished steppers, one entry per
// processor; Finish drops the scratch of a stepper that finds it full.
var freeScratch = make(chan scratch, runtime.GOMAXPROCS(0))

// fit returns the scratch sized for n processes up to horizon. Every
// horizon slot of a finished stepper's scratch is nil and every slab
// empty, so fit only resizes; the batch buffer is capped at n.
func (sc scratch) fit(n int, horizon model.Time) scratch {
	sc.arrivals = resize(sc.arrivals, int(horizon)+1)
	sc.extAt = resize(sc.extAt, int(horizon)+1)
	sc.procArr = resize(sc.procArr, n)
	sc.procExt = resize(sc.procExt, n)
	if cap(sc.batches) < n {
		sc.batches = make([]Batch, 0, n)
	}
	sc.batches = sc.batches[:0:n]
	return sc
}

// resize returns s at length k, keeping the elements it holds up to its
// capacity and appending zero ones past it.
func resize[T any](s []T, k int) []T {
	if k <= cap(s) {
		return s[:k]
	}
	return append(s[:cap(s)], make([]T, k-cap(s))...)
}

// NewStepper validates the configuration and prepares its first tick. A
// horizon too long to tabulate fails with ErrBadConfig and
// run.ErrBadHorizon before anything horizon-sized is allocated.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadConfig)
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("%w: horizon %d < 1", ErrBadConfig, cfg.Horizon)
	}
	n := cfg.Net.N()
	rec, err := run.NewRecorder(cfg.Net, cfg.Horizon)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	var sc scratch
	select {
	case sc = <-freeScratch:
	default:
	}
	s := &Stepper{
		net:     cfg.Net,
		policy:  cfg.Policy,
		hor:     cfg.Horizon,
		rec:     rec,
		scratch: sc.fit(n, cfg.Horizon),
		t:       1,
	}
	if s.policy == nil {
		s.policy = Eager{}
	}
	if cfg.Faults != nil {
		inj, err := faults.NewInjector(cfg.Faults, cfg.Net, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		s.inj = inj
		s.rec.Tolerate()
	}
	for _, ev := range cfg.Externals {
		if !cfg.Net.ValidProc(ev.Proc) {
			return nil, fmt.Errorf("%w: external %q to process %d", ErrBadConfig, ev.Label, ev.Proc)
		}
		if ev.Time < 1 || ev.Time > cfg.Horizon {
			return nil, fmt.Errorf("%w: external %q at time %d outside [1,%d]",
				ErrBadConfig, ev.Label, ev.Time, cfg.Horizon)
		}
		if s.inj != nil && s.inj.Dead(ev.Proc, ev.Time) {
			continue // delivered into a crashed process: no batch, no node
		}
		s.extAt[ev.Time] = append(s.extAt[ev.Time], ev)
	}
	return s, nil
}

// Injector returns the execution's fault injector, nil without a plan.
func (s *Stepper) Injector() *faults.Injector { return s.inj }

// Run returns the run being recorded: every batch stepped so far.
func (s *Stepper) Run() *run.Run { return s.rec.Run() }

// Finish returns the finished run, with its pending messages and
// fingerprint. Call it once Step has returned nil: the stepper's scratch
// then goes to the next NewStepper.
func (s *Stepper) Finish() *run.Run {
	if s.t > s.hor {
		// Step has emptied every bucket and external slot.
		select {
		case freeScratch <- s.scratch:
		default:
		}
		s.scratch = scratch{}
	}
	return s.rec.Finish()
}

// Step advances to the next tick at which some process receives something
// and returns that tick's batches in process order, at most one per
// process. It returns nil once the horizon is exhausted. The returned
// batches and their slices are valid until the next call.
func (s *Stepper) Step() ([]Batch, error) {
	s.batches = s.batches[:0]
	for ; s.t <= s.hor; s.t++ {
		t := s.t
		if s.arrivals[t] == nil && s.extAt[t] == nil {
			continue
		}
		for _, a := range s.arrivals[t] {
			c := s.net.ChannelOf(a.ch)
			s.procArr[c.To-1] = append(s.procArr[c.To-1], run.Arrival{
				From: run.BasicNode{Proc: c.From, Index: int(a.fromIndex)},
				Send: model.Time(a.send),
				Chan: a.ch,
			})
		}
		if s.arrivals[t] != nil {
			s.free = append(s.free, s.arrivals[t][:0])
			s.arrivals[t] = nil
		}
		for _, e := range s.extAt[t] {
			s.procExt[e.Proc-1] = append(s.procExt[e.Proc-1], e.Label)
		}
		s.extAt[t] = nil
		for p := model.ProcID(1); int(p) <= len(s.procArr); p++ {
			arr, ext := s.procArr[p-1], s.procExt[p-1]
			if len(arr) == 0 && len(ext) == 0 {
				continue
			}
			// The slabs are refilled only at the next tick, after the
			// caller is done with this one's batches.
			s.procArr[p-1], s.procExt[p-1] = arr[:0], ext[:0]
			node, err := s.rec.Append(p, t, arr, ext)
			if err != nil {
				return nil, err
			}
			if s.inj != nil {
				for _, a := range arr {
					s.inj.Deliver(a.Chan, a.From.Proc, p, a.Send, t)
				}
			}
			if err := s.flood(node, t); err != nil {
				return nil, err
			}
			s.batches = append(s.batches, Batch{
				Proc: p, Time: t, Node: node, Externals: ext,
				Degraded: s.inj != nil && s.inj.DegradedAt(p, t),
			})
		}
		s.t++
		return s.batches, nil
	}
	return nil, nil
}

// flood schedules node's FFIP messages, sent at t on every outgoing channel.
func (s *Stepper) flood(node run.BasicNode, t model.Time) error {
	p := node.Proc
	arcs := s.net.OutArcs(p)
	for _, a := range arcs {
		if s.inj != nil && s.inj.SendDrop(a.ID, p, a.To, t) {
			continue
		}
		snd := Send{From: p, To: a.To, SendTime: t}
		lat := s.policy.Latency(snd, a.Bounds)
		if err := validateLatency(s.policy, snd, a.Bounds, lat); err != nil {
			return err
		}
		if s.inj != nil {
			lat = s.inj.Delay(a.ID, p, a.To, t, lat)
		}
		rt := t + lat
		if rt > s.hor {
			continue // in transit at the horizon; recorded as pending
		}
		if s.inj != nil && s.inj.Dead(a.To, rt) {
			s.inj.Discard(a.ID, p, a.To, t, rt)
			continue
		}
		if s.arrivals[rt] == nil {
			if k := len(s.free); k > 0 {
				s.arrivals[rt], s.free = s.free[k-1], s.free[:k-1]
			} else {
				s.arrivals[rt] = make([]inFlight, 0, len(arcs))
			}
		}
		s.arrivals[rt] = append(s.arrivals[rt], inFlight{fromIndex: int32(node.Index), send: int32(t), ch: a.ID})
	}
	return nil
}
