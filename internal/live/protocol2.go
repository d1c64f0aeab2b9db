package live

import (
	"errors"
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Protocol2 is the knowledge-optimal coordination agent for B, running
// online at B's process: at every new local state it feeds its view to a
// coord.Decider, Protocol 2's one decision rule (the one RunOptimal drives
// offline, so the two agree exactly), and stops querying once the decision
// is decided or settled. The agent decides XGrid when set, else the one
// threshold Task.X; a plain agent emits its act label at the state that
// decides it, a grid agent emits nothing and its XDecisions stand in for
// one dedicated agent per threshold.
//
// By default the decider's handle is the only subscriber of a private
// one-handle run. UseShared (which Replay calls with the per-run engine
// stamped from Config.Engine) subscribes it to one per-run bounds.Shared
// engine instead, so the standing graph is built once and the agent keeps
// only its frontier, E” overlay and leased scratch.
type Protocol2 struct {
	Task coord.Task
	// ActLabel is the action recorded when b is performed ("b" if empty).
	ActLabel string
	// Rebuild selects the rebuild-per-state baseline (coord.Decider); an
	// engine handed in by UseShared takes precedence.
	Rebuild bool
	// XGrid, when non-empty, replaces Task.X as the agent's thresholds: the
	// agent records their decisions (XDecisions) and emits no actions. Acts
	// never feed back into Replay's schedule, so threshold x is decided where
	// a dedicated agent with Task.X = x acts.
	XGrid []int

	// done, degraded and err end the agent (Finished); the driver reads
	// them at every batch, so they sit together up front.
	done     bool
	degraded bool
	err      error
	reason   error
	begun    bool // dec has taken Task, XGrid and Rebuild
	dec      coord.Decider
}

// XDecisions returns the agent's per-threshold decisions, indexed like
// XGrid (coord.Decider.XDecisions).
func (p *Protocol2) XDecisions() []coord.XDecision { return p.dec.XDecisions() }

// TaskLabel is the canonical act label of the i-th task of a multi-agent
// harness ("b1", "b2", ...). Sweep live cells, the CLI cross-check and the
// differential tests all record and look actions up by it, so the format
// lives in exactly one place.
func TaskLabel(i int) string { return fmt.Sprintf("b%d", i+1) }

// NewTaskAgents builds the canonical multi-agent wiring: one Protocol2
// agent per task, acting with TaskLabel(i), plus the process-keyed map
// Config.Agents wants. Tasks must target distinct B processes (as
// scenario.CoordinationTasks guarantees).
func NewTaskAgents(tasks []coord.Task) ([]*Protocol2, map[model.ProcID]Agent) {
	agents := make([]*Protocol2, len(tasks))
	byProc := make(map[model.ProcID]Agent, len(tasks))
	for i := range tasks {
		agents[i] = &Protocol2{Task: tasks[i], ActLabel: TaskLabel(i)}
		byProc[tasks[i].B] = agents[i]
	}
	return agents, byProc
}

// UseShared implements SharedUser: it subscribes the agent to s, the
// per-run engine Replay hands it before the first state.
func (p *Protocol2) UseShared(s *bounds.Shared) { p.dec.Shared = s }

// Finished implements Finisher: the agent will never query or act again
// once its decision is decided (a plain agent: acted) or settled, or once
// it degraded or failed.
func (p *Protocol2) Finished() bool { return p.done || p.degraded || p.err != nil }

// Err reports the first internal error the agent encountered (knowledge
// queries are total on well-formed views, so this is nil in practice).
func (p *Protocol2) Err() error { return p.err }

// Degrade implements Degradable: the environment notifies the agent that
// its knowledge may rest on a violated communication bound (or that a
// promised delivery verifiably missed its deadline). From then on the agent
// withholds its action permanently — acting on corrupted knowledge could
// break the very precedence it exists to guarantee — and reports Degraded
// instead. The first reason sticks; degrading an agent that already acted
// only releases its engine resources (the act itself was sound: it happened
// strictly before the agent's taint frontier).
func (p *Protocol2) Degrade(reason error) {
	if !p.degraded {
		p.degraded = true
		p.reason = reason
	}
	p.dec.Release()
}

// Degraded reports whether the agent has withheld its action after a
// detected model violation.
func (p *Protocol2) Degraded() bool { return p.degraded }

// DegradeReason returns the typed error (wrapping faults.ErrBoundViolation)
// the agent was degraded with, or nil.
func (p *Protocol2) DegradeReason() error { return p.reason }

// Stats returns the agent's knowledge-query counters, which sweep cells
// harvest after the agent acted (coord.Decider.Stats).
func (p *Protocol2) Stats() bounds.EngineStats { return p.dec.Stats() }

// noteQueryErr absorbs a knowledge-query error: an ErrPositiveCycle means
// the engine refuted a communication bound from the view's own structure,
// so the agent DETECTED a model violation and degrades exactly as if the
// environment had flagged it (the injector's taint frontier normally flags
// it first). Any other error is internal and sticks in p.err.
func (p *Protocol2) noteQueryErr(err error) {
	if errors.Is(err, graph.ErrPositiveCycle) {
		p.Degrade(fmt.Errorf("%w: agent's knowledge graph refutes a channel bound: %v",
			faults.ErrBoundViolation, err))
		return
	}
	p.err = err
}

// OnState implements Agent: the decider takes the new state, and a plain
// agent acts at the state that decides its threshold.
func (p *Protocol2) OnState(v *run.View, _ []string) []string {
	if p.Finished() {
		return nil
	}
	if !p.begun {
		p.begun = true
		p.dec.Task, p.dec.Xs, p.dec.Rebuild = p.Task, p.XGrid, p.Rebuild
	}
	verdict, err := p.dec.Step(v)
	if err != nil {
		p.noteQueryErr(err)
		return nil
	}
	if verdict == coord.Open {
		return nil
	}
	p.done = true
	switch {
	case verdict == coord.Settled || len(p.XGrid) > 0:
		return nil
	case p.ActLabel == "":
		return []string{"b"}
	default:
		return []string{p.ActLabel}
	}
}
