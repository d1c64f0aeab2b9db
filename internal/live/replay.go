package live

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// snapEntry is a live payload the driver holds for pending arrivals: the
// state occupying the ring slot, its frozen history and how many scheduled
// deliveries still reference it. The snapshot is dropped at zero, so memory
// tracks in-flight messages, not the horizon.
type snapEntry struct {
	idx  int
	snap *run.Snapshot
	left int
}

// driver feeds the stepper's batches into every process's view and agent:
// per batch it absorbs the arrivals' payloads, runs the agent and snapshots
// the new state for the arrivals that will reference it.
//
// Pending payloads live in fixed per-process rings indexed by node index
// modulo maxUpper+1. The slot reuse is sound: a process creates at most one
// state per tick, so two states maxUpper+1 indices apart are at least
// maxUpper+1 ticks apart, and every arrival flooding off the earlier one
// (latency ≤ maxUpper) is absorbed — batches are driven in tick order —
// before the later one's batch stores into the slot.
type driver struct {
	inj      *faults.Injector
	views    []*run.View
	agents   []Agent
	rings    [][]snapEntry
	receipts []run.Receipt
	res      *Result
}

func newDriver(cfg Config, inj *faults.Injector, res *Result) *driver {
	n := cfg.Net.N()
	views := make([]*run.View, n)
	agents := make([]Agent, n)
	for _, p := range cfg.Net.Procs() {
		views[p-1] = run.NewLocalView(cfg.Net, p)
		agents[p-1] = cfg.Agents[p]
	}
	maxU := 0
	for _, a := range cfg.Net.Arcs() {
		if a.Bounds.Upper > maxU {
			maxU = a.Bounds.Upper
		}
	}
	if inj != nil {
		// Deadline faults deliver up to MaxSlack ticks past an arc's upper
		// bound; the ring must keep states alive that much longer.
		maxU += inj.MaxSlack()
	}
	ringBacking := make([]snapEntry, n*(maxU+1))
	rings := make([][]snapEntry, n)
	for i := range rings {
		rings[i] = ringBacking[i*(maxU+1) : (i+1)*(maxU+1)]
	}
	return &driver{
		inj:      inj,
		views:    views,
		agents:   agents,
		rings:    rings,
		receipts: make([]run.Receipt, 0, 8),
		res:      res,
	}
}

// drive feeds one tick's batches to their processes in process order.
func (d *driver) drive(batches []sim.Batch) error {
	for i := range batches {
		b := &batches[i]
		d.receipts = d.receipts[:0]
		for _, a := range b.Arrivals {
			ring := d.rings[a.From.Proc-1]
			e := &ring[a.From.Index%len(ring)]
			if e.idx != a.From.Index || e.left == 0 {
				return fmt.Errorf("live: replay references unknown state %v", a.From)
			}
			d.receipts = append(d.receipts, run.Receipt{From: a.From, Payload: e.snap})
			if e.left--; e.left == 0 {
				e.snap = nil
			}
		}

		view := d.views[b.Proc-1]
		node, err := view.Absorb(d.receipts, b.Externals)
		if err != nil {
			return fmt.Errorf("live: process %d: %w", b.Proc, err)
		}
		if node != b.Node {
			return fmt.Errorf("live: stepper predicted state %v for process %d, view produced %v",
				b.Node, b.Proc, node)
		}
		if agent := d.agents[b.Proc-1]; agent != nil {
			if b.Degraded {
				if dg, ok := agent.(Degradable); ok {
					dg.Degrade(d.inj.DegradeReason(b.Proc, b.Time))
				}
			}
			for _, label := range agent.OnState(view, b.Externals) {
				d.res.Actions = append(d.res.Actions, Action{Proc: b.Proc, Node: node, Time: b.Time, Label: label})
			}
		}
		if b.Floods > 0 {
			ring := d.rings[b.Proc-1]
			ring[node.Index%len(ring)] = snapEntry{idx: node.Index, snap: view.Snapshot(), left: b.Floods}
		}
	}
	return nil
}

// Replay executes the configuration in a single goroutine: sim.Stepper
// schedules the environment tick by tick — the same policy calls, fault
// hooks and builder events as sim.Simulate — and the driver feeds each
// tick's batches straight into the receiving processes' views and agents.
// Only one tick's batches exist at a time, so long-horizon runs never hold
// their event stream in memory.
//
// The recording is byte-identical to sim.Simulate's for the same
// configuration, because scheduling is agent-independent (agents only emit
// action labels). Every latency is at least 1, so a tick's arrivals always
// reference states driven at earlier ticks.
func Replay(cfg Config) (*Result, error) {
	stp, err := sim.NewStepper(sim.Config{
		Net: cfg.Net, Horizon: cfg.Horizon, Policy: cfg.Policy,
		Externals: cfg.Externals, Faults: cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	// Stamp the per-run knowledge engine and hand it to every SharedUser.
	var shared *bounds.Shared
	res := &Result{}
	if cfg.Engine != nil {
		if en := cfg.Engine.Net(); en != cfg.Net && en.Fingerprint() != cfg.Net.Fingerprint() {
			return nil, fmt.Errorf("%w: live: Config.Engine was built for a different network", sim.ErrBadConfig)
		}
		shared, res.PrefixHit = cfg.Engine.NewRunAt(cfg.Fingerprint)
		for _, agent := range cfg.Agents {
			if su, ok := agent.(SharedUser); ok {
				su.UseShared(shared)
			}
		}
	}

	drv := newDriver(cfg, stp.Injector(), res)
	for {
		batches, err := stp.Step()
		if err != nil {
			return nil, err
		}
		if batches == nil {
			break
		}
		res.ReplayBatches += len(batches)
		if err := drv.drive(batches); err != nil {
			return nil, err
		}
	}

	r, err := stp.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Fingerprint != 0 && r.Fingerprint() != cfg.Fingerprint {
		return nil, fmt.Errorf("live: recorded run fingerprint %#x differs from Config.Fingerprint %#x",
			r.Fingerprint(), cfg.Fingerprint)
	}
	res.Run = r
	if cfg.Engine != nil {
		// No-op unless NewRunAt missed; the fingerprint check above keeps
		// mispredicted runs out of the cache.
		shared.CommitPrefix()
		cfg.Engine.NoteReplay(int64(res.ReplayBatches))
	}
	if inj := stp.Injector(); inj != nil {
		rep := inj.Report()
		res.Violations, res.Crashed = rep.Violations, rep.Crashed
		// Result.Degraded is about withheld actions, so restrict the
		// injector's process-level frontier (already in id order) to the
		// agent-bearing processes.
		for _, p := range rep.Degraded {
			if cfg.Agents[p] != nil {
				res.Degraded = append(res.Degraded, p)
			}
		}
	}
	return res, nil
}
