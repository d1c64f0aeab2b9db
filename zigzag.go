package zigzag

import (
	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/timing"
)

// Core model types.
type (
	// ProcID identifies a process (1..n).
	ProcID = model.ProcID
	// Time is a point on the global timeline (processes cannot read it).
	Time = model.Time
	// Bounds is a channel's [L, U] transmission-time window.
	Bounds = model.Bounds
	// Channel is a directed channel between two processes.
	Channel = model.Channel
	// Network is an immutable time-bounded communication network.
	Network = model.Network
	// NetworkBuilder accumulates channels and produces a Network.
	NetworkBuilder = model.Builder
	// Path is a sequence of processes describing a walk in the network.
	Path = model.Path
)

// Run types.
type (
	// BasicNode is a (process, local state) pair.
	BasicNode = run.BasicNode
	// GeneralNode is <sigma, p>: the node at the end of the FFIP chain
	// leaving sigma along path p.
	GeneralNode = run.GeneralNode
	// Run is a recorded execution.
	Run = run.Run
	// RunBuilder assembles runs from raw timed events.
	RunBuilder = run.Builder
	// Delivery is one recorded message delivery.
	Delivery = run.Delivery
	// External is one spontaneous environment input.
	External = run.External
	// ExternalEvent schedules an external input for the simulator.
	ExternalEvent = run.ExternalEvent
	// View is past(r, sigma), the causal past of a node: the structural
	// content of its local state — all an agent ever sees.
	View = run.View
)

// Simulation types.
type (
	// Policy chooses message latencies within channel bounds.
	Policy = sim.Policy
	// SimConfig parametrizes one simulation.
	SimConfig = sim.Config
	// Send identifies one FFIP message for policies.
	Send = sim.Send
	// EagerPolicy delivers at lower bounds.
	EagerPolicy = sim.Eager
	// LazyPolicy delivers at upper bounds (the deadline).
	LazyPolicy = sim.Lazy
	// RandomPolicy draws latencies uniformly with a seed.
	RandomPolicy = sim.Random
	// PolicyFunc adapts a function to a Policy.
	PolicyFunc = sim.Func
)

// Analysis types.
type (
	// BasicGraph is the basic bounds graph GB(r) (Definition 8).
	BasicGraph = bounds.Basic
	// ExtendedGraph is the extended bounds graph GE(r, sigma)
	// (Definition 16), the seat of knowledge computation.
	ExtendedGraph = bounds.Extended
	// Step is one edge of a constraint path.
	Step = bounds.Step
	// Fork is a two-legged fork (Definition 5).
	Fork = pattern.Fork
	// Zigzag is a zigzag pattern (Definition 6).
	Zigzag = pattern.Zigzag
	// VisibleZigzag is a sigma-visible zigzag pattern (Definition 7).
	VisibleZigzag = pattern.Visible
	// SlowRun is the Lemma 8 tightness construction for Theorem 2.
	SlowRun = timing.Slow
	// FastRun is the Definition 24 tightness construction for Theorem 4.
	FastRun = timing.Fast
)

// Coordination types.
type (
	// Task is a timed coordination task (Definition 1).
	Task = coord.Task
	// TaskKind selects Late or Early.
	TaskKind = coord.Kind
	// Outcome reports a protocol's behaviour on one run.
	Outcome = coord.Outcome
	// Wiring locates a task's fixed nodes in a run.
	Wiring = coord.Wiring
)

// Task kinds.
const (
	// Late is Late<a --x--> b>: b at least x time units after a.
	Late = coord.Late
	// Early is Early<b --x--> a>: b at least x time units before a.
	Early = coord.Early
)

// NewNetwork returns a builder for a network over processes 1..n.
func NewNetwork(n int) *NetworkBuilder { return model.NewBuilder(n) }

// At returns the general node denoting sigma itself.
func At(sigma BasicNode) GeneralNode { return run.At(sigma) }

// Via returns the general node <sigma, p>.
func Via(sigma BasicNode, p Path) GeneralNode { return run.Via(sigma, p) }

// Simulate executes the FFIP over the configured network and returns the
// recorded run. See sim.Simulate.
func Simulate(cfg SimConfig) (*Run, error) { return sim.Simulate(cfg) }

// NewRandomPolicy returns a seeded uniform-latency policy.
func NewRandomPolicy(seed int64) *RandomPolicy { return sim.NewRandom(seed) }

// NewBasicGraph constructs GB(r).
func NewBasicGraph(r *Run) *BasicGraph { return bounds.NewBasic(r) }

// NewExtendedGraph constructs GE(r, sigma) over sigma's causal past.
func NewExtendedGraph(r *Run, sigma BasicNode) (*ExtendedGraph, error) {
	return bounds.NewExtended(r, sigma)
}

// SupportedBound returns the tightest x such that the run's communication
// pattern guarantees sigma1 --x--> sigma2 in every run with the same
// structure, together with the witnessing zigzag (Lemma 5 / Theorem 2).
// found is false when no bound is supported at all.
func SupportedBound(g *BasicGraph, sigma1, sigma2 BasicNode) (x int, z *Zigzag, found bool, err error) {
	z, x, found, err = pattern.ExtractBasic(g, sigma1, sigma2)
	return x, z, found, err
}

// KnowledgeWeight returns the strongest bound x for which
// K_sigma(theta1 --x--> theta2) holds, with the sigma-visible zigzag
// witnessing it (Theorem 4). known is false when nothing is known.
func KnowledgeWeight(g *ExtendedGraph, theta1, theta2 GeneralNode) (x int, w *VisibleZigzag, known bool, err error) {
	w, x, known, err = pattern.KnowledgeWitness(g, theta1, theta2)
	return x, w, known, err
}

// Knows reports whether K_sigma(theta1 --x--> theta2) holds at the graph's
// origin node.
func Knows(g *ExtendedGraph, theta1 GeneralNode, x int, theta2 GeneralNode) (bool, error) {
	return g.Knows(theta1, x, theta2)
}

// BuildSlowRun synthesizes the Lemma 8 slow run targeted at sigma2,
// certifying tightness of GB longest paths (Theorem 2).
func BuildSlowRun(g *BasicGraph, sigma2 BasicNode, extra Time) (*SlowRun, error) {
	return timing.BuildSlow(g, sigma2, extra)
}

// BuildFastRun synthesizes the Definition 24 fast run of theta1 with respect
// to sigma, certifying tightness of knowledge weights (Theorem 4).
func BuildFastRun(r *Run, sigma BasicNode, theta1 GeneralNode, gamma int, horizon Time) (*FastRun, error) {
	return timing.BuildFast(r, sigma, theta1, gamma, horizon)
}

// SameView reports whether two runs are indistinguishable at sigma
// (r1 ~sigma r2); a nil error means they are.
func SameView(r1, r2 *Run, sigma BasicNode) error { return run.SameView(r1, r2, sigma) }

// GoAt returns a one-input external schedule (the mu_go trigger of the
// coordination tasks).
func GoAt(proc ProcID, t Time, label string) []ExternalEvent { return sim.GoAt(proc, t, label) }
