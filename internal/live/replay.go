package live

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// driver moves the view of every agent-bearing process over the run the
// stepper records, one state per batch, and calls the agent at each. A
// view reads the recorded run, so a message's full-information payload is
// just its sender node: every latency is at least 1 and batches are driven
// in tick order, so the run already holds the sender's causal past. A
// Finished agent is no longer driven (see Finisher).
type driver struct {
	r      *run.Run
	inj    *faults.Injector
	views  []*run.View // nil for processes without an agent
	agents []Agent
	fins   []Finisher // nil for agents that do not implement Finisher
	res    *Result
}

func newDriver(cfg Config, r *run.Run, inj *faults.Injector, res *Result) (*driver, error) {
	n := cfg.Net.N()
	d := &driver{r: r, inj: inj, views: make([]*run.View, n), agents: make([]Agent, n),
		fins: make([]Finisher, n), res: res}
	for _, p := range cfg.Net.Procs() {
		agent := cfg.Agents[p]
		if agent == nil {
			continue
		}
		v, err := run.ViewOf(r, run.BasicNode{Proc: p})
		if err != nil {
			return nil, err
		}
		d.views[p-1], d.agents[p-1] = v, agent
		d.fins[p-1], _ = agent.(Finisher)
	}
	return d, nil
}

// drive hands one tick's batches to their processes' agents in process
// order.
func (d *driver) drive(batches []sim.Batch) error {
	for i := range batches {
		b := &batches[i]
		agent := d.agents[b.Proc-1]
		if agent == nil {
			continue
		}
		if fin := d.fins[b.Proc-1]; fin != nil && fin.Finished() {
			d.degrade(agent, b)
			continue
		}
		view := d.views[b.Proc-1]
		node, err := view.Advance(d.r)
		if err != nil {
			return fmt.Errorf("live: process %d: %w", b.Proc, err)
		}
		if node != b.Node {
			return fmt.Errorf("live: stepper recorded state %v for process %d, view moved to %v",
				b.Node, b.Proc, node)
		}
		d.degrade(agent, b)
		for _, label := range agent.OnState(view, b.Externals) {
			d.res.Actions = append(d.res.Actions, Action{Proc: b.Proc, Node: node, Time: b.Time, Label: label})
		}
	}
	return nil
}

// degrade passes the injector's reason to a Degradable agent whose batch
// lies at or past its taint frontier.
func (d *driver) degrade(agent Agent, b *sim.Batch) {
	if !b.Degraded {
		return
	}
	if dg, ok := agent.(Degradable); ok {
		dg.Degrade(d.inj.DegradeReason(b.Proc, b.Time))
	}
}

// Replay executes the configuration in a single goroutine: sim.Stepper
// schedules the environment tick by tick — the same policy calls, fault
// hooks and recorded batches as sim.Simulate — and the driver moves each
// agent-bearing receiver's view over the growing run and calls its agent.
// Only one tick's schedule exists at a time; the run is the one record of
// the execution.
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
	// An agent keyed by a process outside the network would never be
	// called; name the lowest such key.
	bad, found := model.ProcID(0), false
	for p := range cfg.Agents {
		if !cfg.Net.ValidProc(p) && (!found || p < bad) {
			bad, found = p, true
		}
	}
	if found {
		return nil, fmt.Errorf("%w: live: agent keyed by process %d outside the %d-process network",
			sim.ErrBadConfig, bad, cfg.Net.N())
	}
	// Stamp the per-run knowledge engine and hand it to every SharedUser.
	var shared *bounds.Shared
	res := &Result{}
	if cfg.Engine != nil {
		if en := cfg.Engine.Net(); en != cfg.Net && en.Fingerprint() != cfg.Net.Fingerprint() {
			return nil, fmt.Errorf("%w: live: Config.Engine was built for a different network", sim.ErrBadConfig)
		}
		shared, res.PrefixHit = cfg.Engine.NewRunAt(cfg.Fingerprint)
		defer shared.Release() // also the handles of agents that never acted
		for _, agent := range cfg.Agents {
			if su, ok := agent.(SharedUser); ok {
				su.UseShared(shared)
			}
		}
	}

	drv, err := newDriver(cfg, stp.Run(), stp.Injector(), res)
	if err != nil {
		return nil, err
	}
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

	r := stp.Finish()
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
