// Package live executes the bounded communication model with an
// application agent at every process. It exists to demonstrate — and test —
// that every decision in this library is honestly clockless: an agent
// receives only run.View values (the structure of its causal past) and has
// no access whatsoever to the environment's clock; its decisions must
// therefore coincide exactly with the offline analysis, which the tests
// assert.
//
// The environment is sim.Stepper, the same tick-at-a-time schedule that
// sim.Simulate records: Replay takes each tick's receive batches from it
// and, in (time, process) order and in one goroutine, moves each
// agent-bearing receiver's view to its new state and calls its agent.
// Agents never see the tick value. The stepper appends every batch to the
// execution's one recording, a run.Run, as it schedules it; each view is a
// frontier over that growing run, moved by run.View.Advance, so a
// message's full-information payload is just its sender node: the run
// already holds that node's causal past.
package live

import (
	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// Agent is the application logic of one process. OnState is called at every
// new local state of the process, with the process's
// current view (structure only — no times) and the external labels absorbed
// in the creating batch. The externals slice is reused between batches;
// agents must not retain it. The returned labels are recorded as actions
// performed at that state. An agent may also implement the optional
// SharedUser (take the per-run knowledge engine), Degradable (be told of
// violated bounds) and Finisher (stop being driven once it will never act
// again) interfaces.
type Agent interface {
	OnState(v *run.View, externals []string) (actions []string)
}

// AgentFunc adapts a function to an Agent.
type AgentFunc func(v *run.View, externals []string) []string

// OnState implements Agent.
func (f AgentFunc) OnState(v *run.View, externals []string) []string { return f(v, externals) }

// Action records one action an agent performed.
type Action struct {
	Proc  model.ProcID
	Node  run.BasicNode
	Time  model.Time
	Label string
}

// SharedUser is implemented by agents that can subscribe to a per-run
// shared knowledge engine (bounds.Shared). Replay hands the per-run engine
// stamped from Config.Engine to every such agent before its first state.
type SharedUser interface {
	UseShared(*bounds.Shared)
}

// Degradable is implemented by agents that support graceful degradation
// under fault injection. When the environment determines that a process's
// knowledge may rest on a violated communication bound — a claim about a
// dropped, late or discarded message, or a promised delivery verifiably
// past its deadline — it calls Degrade (before OnState) with the typed
// reason, a faults.ErrBoundViolation wrap. A degraded agent is expected to withhold further actions; Protocol2 does.
// Degrade may be called repeatedly as the condition persists, also once
// the agent is Finished, and once more after the last tick for an agent
// whose process ended the run behind the frontier untold. Degraded reports whether the agent has degraded,
// told by Degrade or on its own (Protocol2 degrades itself when its
// knowledge graph refutes a channel bound); Replay lists such agents in
// Result.Degraded.
type Degradable interface {
	Degrade(reason error)
	Degraded() bool
}

// Finisher is implemented by agents that can tell when they are done: once
// Finished reports true it must stay true, and the agent promises never to
// act again. Replay then stops driving the process: its view no longer
// advances and OnState is no longer called, so a finished agent costs
// nothing per state. Degrade still reaches a finished Degradable agent on
// every degraded batch, so fault reports do not depend on when it
// finished. Protocol2 is finished once it has decided every threshold (a
// plain agent: acted), settled, degraded or failed.
type Finisher interface {
	Finished() bool
}

// Config parametrizes a live execution.
type Config struct {
	Net       *model.Network
	Horizon   model.Time
	Policy    sim.Policy
	Externals []run.ExternalEvent
	// Agents maps processes to their application logic; processes without
	// an agent still flood (they are pure FFIP relays).
	Agents map[model.ProcID]Agent
	// Engine, when non-nil, is the network-lifetime knowledge engine this
	// execution subscribes to: Replay stamps a fresh per-run Shared out of
	// it (bounds.NetworkEngine.NewRun) and hands that to every SharedUser
	// agent. Harnesses running many executions of one
	// network — sweeps, benchmarks — build the engine once and put it here,
	// so the aux band, presizing hints and scratch pool amortize across
	// runs. It must have been built for Net or a content-equal network.
	Engine *bounds.NetworkEngine
	// Fingerprint, when nonzero (and Engine is set), is the content
	// fingerprint (run.Run.Fingerprint) this execution is expected to
	// record — known up front for deterministic policies by pre-simulating
	// once, or from an earlier recording. Replay then stamps the per-run
	// engine through the network engine's standing-prefix cache
	// (bounds.NetworkEngine.NewRunAt): a cached identical run's standing
	// graph is reused outright, and on a miss the completed run is frozen
	// into the cache for the executions that follow. Replay fails if the
	// recording's fingerprint comes out different — a wrong prediction
	// must surface, not poison the cache.
	Fingerprint uint64
	// Faults optionally injects a deterministic fault plan (crashes, dead
	// links, missed deadlines) into the environment. sim.Stepper applies it,
	// so the recording is identical to sim.Simulate with the same plan. Nil
	// means the fault-free environment of the paper. Faulted executions
	// should leave Fingerprint zero: their recordings are not legal runs and
	// must bypass the standing-prefix cache.
	Faults *faults.Plan
}

// Result is the outcome of a live execution.
type Result struct {
	// Run is the environment-side ground-truth recording; it validates as a
	// legal run and is byte-identical in structure to what sim.Simulate
	// produces for the same configuration.
	Run *run.Run
	// Actions lists agent actions in (time, process) order.
	Actions []Action
	// PrefixHit reports that the run's knowledge engine was stamped from a
	// frozen standing prefix of an identical earlier run
	// (Config.Fingerprint hit the network engine's prefix cache).
	PrefixHit bool
	// ReplayBatches counts the receive batches driven: one per state the
	// execution created.
	ReplayBatches int
	// Violations lists every communication-bound violation the fault plan
	// injected, as typed errors in canonical order (Config.Faults only).
	Violations []*faults.Violation
	// Degraded lists the agent-bearing processes that ended the run
	// degraded — withholding actions because their knowledge may rest on a
	// violated bound — in id order: those behind the fault injector's taint
	// frontier and those whose Degradable agent reports Degraded.
	Degraded []model.ProcID
	// Crashed lists the processes the plan halted within the horizon, in id
	// order (Config.Faults only).
	Crashed []model.ProcID
}
