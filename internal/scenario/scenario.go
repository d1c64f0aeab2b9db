// Package scenario encodes the paper's figures and motivating examples as
// concrete, runnable bcm instances: a network with bounds, a schedule of
// spontaneous external inputs, named process roles and (where applicable) a
// coordination task. The experiment harness (cmd/zigzag-experiments and the
// repository benchmarks) regenerates each figure from these.
package scenario

import (
	"fmt"

	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// Scenario is one self-contained bcm instance.
type Scenario struct {
	Name        string
	Description string
	Net         *model.Network
	Externals   []run.ExternalEvent
	Horizon     model.Time
	// Roles maps role names ("A", "B", "C", ...) to process ids.
	Roles map[string]model.ProcID
	// Task is the coordination task the scenario poses, if any.
	Task *coord.Task
	// Tasks lists the concurrent coordination tasks of a multi-agent
	// scenario (one Protocol2 agent per task on the same run); when set,
	// Task points at its first element so single-task harnesses keep
	// working.
	Tasks []coord.Task
	// DefaultPolicy drives the canonical run of the figure; nil means Eager.
	DefaultPolicy sim.Policy
	// FaultFamily, when non-empty, names the faults.NewPlan family a sweep
	// cell injects into this scenario's executions (the plan itself is
	// derived per seed, so one scenario covers the whole seed axis). Faulted
	// cells run live-only and bypass the standing-prefix cache — their
	// recordings are not legal runs.
	FaultFamily string
	// XBase and XValue mark this scenario as one variant of an x-override
	// axis: XBase names the base scenario (identical network, externals and
	// horizon across the whole family — only task thresholds differ) and
	// XValue is the applied override. sweep.Axes sets both when it expands a
	// multi-x grid; sweeps use them to collapse the x axis of fault-free
	// live cells, since variants differing only in task X record identical
	// runs (agents only emit labels; an act never feeds back into the
	// schedule) and one execution deciding the whole threshold grid answers
	// the family.
	XBase  string
	XValue int
}

// TaskList returns the scenario's concurrent coordination tasks, falling
// back to the single Task for single-task scenarios. Empty means the
// scenario poses no coordination task. Multi-agent harnesses (live sweep
// cells, `zigzag-sim -engine`) index agents by position in this list.
func (s *Scenario) TaskList() []coord.Task {
	if len(s.Tasks) > 0 {
		return s.Tasks
	}
	if s.Task != nil {
		return []coord.Task{*s.Task}
	}
	return nil
}

// Proc returns the process playing a role; it panics on unknown roles
// (scenario definitions are static fixtures).
func (s *Scenario) Proc(role string) model.ProcID {
	p, ok := s.Roles[role]
	if !ok {
		panic(fmt.Sprintf("scenario %s: unknown role %q", s.Name, role))
	}
	return p
}

// Simulate produces a run of the scenario under the given policy (nil means
// the scenario's default).
func (s *Scenario) Simulate(policy sim.Policy) (*run.Run, error) {
	if policy == nil {
		policy = s.DefaultPolicy
	}
	return sim.Simulate(sim.Config{
		Net:       s.Net,
		Horizon:   s.Horizon,
		Policy:    policy,
		Externals: s.Externals,
	})
}

// MustSimulate is Simulate that panics on error.
func (s *Scenario) MustSimulate(policy sim.Policy) *run.Run {
	r, err := s.Simulate(policy)
	if err != nil {
		panic(err)
	}
	return r
}
