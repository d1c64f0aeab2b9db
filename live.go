package zigzag

import (
	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/run"
)

// Live execution types: the simulator's environment driving an agent at
// every process, agents deciding online from their views only (no clock
// access).
type (
	// Agent is per-process application logic for the live engine.
	Agent = live.Agent
	// AgentFunc adapts a function to an Agent.
	AgentFunc = live.AgentFunc
	// LiveConfig parametrizes a live execution.
	LiveConfig = live.Config
	// LiveResult is a live execution's outcome: the ground-truth recording
	// plus the actions agents performed.
	LiveResult = live.Result
	// LiveAction records one agent action.
	LiveAction = live.Action
	// OnlineProtocol2 is the knowledge-optimal coordination agent for B,
	// deciding online; it agrees exactly with (Task).RunOptimal.
	OnlineProtocol2 = live.Protocol2
)

// RunLive executes the configuration: the environment schedules one tick at
// a time and every agent is driven state by state in the calling
// goroutine. The recording is byte-identical to Simulate's on the same
// configuration.
func RunLive(cfg LiveConfig) (*LiveResult, error) { return live.Replay(cfg) }

// ViewOf extracts the subjective view of sigma from a recorded run.
func ViewOf(r *Run, sigma BasicNode) (*View, error) { return run.ViewOf(r, sigma) }

// NewExtendedGraphFromView builds GE from a view — the clockless entry
// point used by online agents.
func NewExtendedGraphFromView(v *View) (*ExtendedGraph, error) {
	return bounds.NewExtendedFromView(v)
}
