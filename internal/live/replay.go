package live

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// driver feeds the stepper's batches into every process's view and agent.
// All views share one causal store; an arrival's payload is just its
// sender node, whose frontier the store already holds, since every latency
// is at least 1 and batches are driven in tick order.
type driver struct {
	inj    *faults.Injector
	views  []*run.View
	agents []Agent
	from   []run.BasicNode
	res    *Result
}

func newDriver(cfg Config, inj *faults.Injector, res *Result) *driver {
	st := run.NewStore(cfg.Net)
	n := cfg.Net.N()
	views := make([]*run.View, n)
	agents := make([]Agent, n)
	for _, p := range cfg.Net.Procs() {
		views[p-1] = st.LocalView(p)
		agents[p-1] = cfg.Agents[p]
	}
	return &driver{inj: inj, views: views, agents: agents, res: res}
}

// drive feeds one tick's batches to their processes in process order.
func (d *driver) drive(batches []sim.Batch) error {
	for i := range batches {
		b := &batches[i]
		d.from = d.from[:0]
		for _, a := range b.Arrivals {
			d.from = append(d.from, a.From)
		}
		view := d.views[b.Proc-1]
		node, err := view.Absorb(d.from, b.Externals)
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
		cfg.Engine.Note(bounds.EngineStats{ReplayBatches: int64(res.ReplayBatches)})
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
