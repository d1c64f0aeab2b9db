package live

import (
	"errors"
	"fmt"
	"math"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// errDifferentView reports a Protocol2 agent driven with a view other than
// the one its incremental engine was built on.
var errDifferentView = errors.New("live: Protocol2 observed a different view than its engine was built on")

// Protocol2 is the knowledge-optimal coordination agent for B, running
// online at B's process. At every new local state it looks for C's go node
// in its view, consults the extended bounds graph of the view (structure
// only — the agent cannot read any clock), and performs b the first time
// the required precedence is known. At the first state where its decision
// is settled (coord.Task.Settled: an Early task whose target is already in
// its past) it stops querying for good. It is the live counterpart of
// (coord.Task).RunOptimal, and the two must agree exactly.
//
// The agent decides a grid of thresholds: XGrid when set, else the one
// threshold Task.X. By Theorem 4, σ knows θ1 --x--> θ2 exactly when
// kw(θ1, θ2) >= x, so at each state one KnowsAt answers the whole grid,
// and the state where threshold x first holds is where a dedicated agent
// with Task.X = x acts. XDecisions records that state per threshold. A
// plain agent (no XGrid) also emits its act label there; a grid agent
// emits nothing, its trajectory standing in for one dedicated agent per
// threshold.
//
// The agent always queries through a bounds.Handle, which maintains the
// graph incrementally across states and pays only for the view's growth
// per state. By default the handle is the only subscriber of a private
// one-handle run. UseShared (which Replay calls with the per-run engine
// stamped from Config.Engine) subscribes the agent to one per-run
// bounds.Shared engine instead, so the standing graph is built once and the
// agent keeps only its frontier, E” overlay and leased scratch. Rebuild
// swaps the handle for a fresh bounds.Extended per state. Every
// configuration answers exactly as a fresh per-state build, so the
// agreement theorem is engine-independent.
type Protocol2 struct {
	Task coord.Task
	// ActLabel is the action recorded when b is performed ("b" if empty).
	ActLabel string
	// Rebuild forces a fresh NewExtendedFromView at every state instead of
	// the incremental engine — the rebuild-per-state baseline that
	// benchmarks and differential tests compare against. An engine handed
	// in by UseShared takes precedence.
	Rebuild bool
	// XGrid, when non-empty, replaces Task.X as the agent's thresholds: the
	// agent records per threshold the first state at which the required
	// precedence became known (XDecisions) and emits no actions. Knowledge
	// gain is monotone, so the recorded state for threshold x is precisely
	// where a dedicated agent with Task.X = x would have acted, provided
	// acting cannot feed back into the delivery schedule (it cannot in
	// Replay: agents only emit labels).
	XGrid []int

	// decided, settled, degraded and err end the agent (Finished); the
	// driver reads them at every batch, so they sit together up front.
	decided  bool
	settled  bool
	degraded bool
	err      error
	reason   error
	shared   *bounds.Shared
	handle   *bounds.Handle

	// goFound memoizes the resolution of C's go node: the view's external
	// log is append-only, so once found neither sigmaC nor the derived chain
	// node at A can move, and re-running FindExternal per state is waste.
	goFound bool
	aNode   run.GeneralNode

	// Decision state over the thresholds xs (XGrid, or [Task.X]): per
	// threshold decisions, the count still undecided, and the reusable
	// KnowsAt verdict buffer. A plain agent's one-entry grid lives in the
	// one* arrays, so it allocates nothing.
	xs       []int
	xDecided []XDecision
	xLeft    int
	holds    []bool
	oneX     [1]int
	oneD     [1]XDecision
	oneH     [1]bool
}

// XDecision records, for one threshold, the first agent state at which
// the required precedence became known. Node identifies that state's origin
// on the agent's timeline; the agent is clockless, so harvesters derive the
// act TIME from the recording (run.Run.Time), never from the agent.
type XDecision struct {
	Decided bool
	Node    run.BasicNode
}

// XDecisions returns the agent's per-threshold decision trajectory, indexed
// like XGrid, or one entry for Task.X when XGrid is empty (nil before the
// state where C's go node enters the agent's view).
func (p *Protocol2) XDecisions() []XDecision { return p.xDecided }

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
func (p *Protocol2) UseShared(s *bounds.Shared) { p.shared = s }

// Finished implements Finisher: the agent will never query or act again
// once it has decided every threshold (a plain agent: acted), settled
// (coord.Task.Settled: its open thresholds can never become known),
// degraded or failed.
func (p *Protocol2) Finished() bool {
	return p.decided || p.settled || p.degraded || p.err != nil
}

// release returns the handle's leased scratch to the engine pool for later
// subscribers once the agent will never query again.
func (p *Protocol2) release() {
	if p.handle != nil {
		p.handle.Release()
	}
}

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
	p.release()
}

// Degraded reports whether the agent has withheld its action after a
// detected model violation.
func (p *Protocol2) Degraded() bool { return p.degraded }

// DegradeReason returns the typed error (wrapping faults.ErrBoundViolation)
// the agent was degraded with, or nil.
func (p *Protocol2) DegradeReason() error { return p.reason }

// Stats returns the agent's knowledge-query counters (zero for the rebuild
// baseline). The counters survive the handle's Release, so sweep cells
// harvest them after the agent acted.
func (p *Protocol2) Stats() bounds.EngineStats {
	if p.handle != nil {
		return p.handle.Stats()
	}
	return bounds.EngineStats{}
}

// knower is the query surface Protocol2 needs, implemented by the
// incremental *bounds.Handle and by the rebuild baseline's
// *bounds.Extended.
type knower interface {
	KnowsAt(theta1 run.GeneralNode, xs []int, theta2 run.GeneralNode, holds []bool) (kw int, known bool, err error)
}

// engineFor resolves the engine serving this state: a fresh build for the
// rebuild baseline, otherwise the agent's handle — subscribed on first use
// to the shared engine, or to a private one-handle run.
func (p *Protocol2) engineFor(v *run.View) (knower, error) {
	if p.Rebuild && p.shared == nil {
		ext, err := bounds.NewExtendedFromView(v)
		if err != nil {
			return nil, err
		}
		return ext, nil
	}
	if p.handle == nil {
		s := p.shared
		if s == nil {
			s = bounds.NewNetworkEngine(v.Net()).NewRun()
		}
		h, err := s.NewHandle(v)
		if err != nil {
			return nil, err
		}
		p.handle = h
	} else if p.handle.View() != v {
		// The handle is bound to the view it subscribed; a harness that
		// hands one agent two different views would otherwise get silently
		// stale answers.
		return nil, errDifferentView
	}
	return p.handle, nil
}

// noteQueryErr absorbs a knowledge-query error: an ErrPositiveCycle means
// the engine refuted a communication bound from the view's own structure —
// some promised delivery verifiably failed to arrive in its window. That is
// the agent DETECTING a model violation, not an internal failure — degrade
// exactly as if the environment had flagged it. (The injector's taint
// frontier normally flags the agent first; this is the belt-and-braces path
// for violation shapes the agent can refute by inference alone.) Any other
// error is internal and sticks in p.err.
func (p *Protocol2) noteQueryErr(err error) {
	if errors.Is(err, graph.ErrPositiveCycle) {
		p.Degrade(fmt.Errorf("%w: agent's knowledge graph refutes a channel bound: %v",
			faults.ErrBoundViolation, err))
		return
	}
	p.err = err
}

// OnState implements Agent: one KnowsAt answers every undecided threshold,
// and newly satisfied ones are stamped with this state. The agent queries
// until every threshold is decided or every open one is settled, or until
// the run ends with part of the grid open.
func (p *Protocol2) OnState(v *run.View, _ []string) []string {
	if p.Finished() {
		return nil
	}
	if !p.goFound {
		label := p.Task.GoLabel
		if label == "" {
			label = "go"
		}
		sigmaC, ok := v.FindExternal(p.Task.C, label)
		if !ok {
			return nil // C's send is not yet in B's past
		}
		// The external log is append-only: once found, the go node and the
		// chain node it induces at A are fixed for the rest of the run.
		p.goFound = true
		p.aNode = run.At(sigmaC).Hop(p.Task.A)
		if len(p.XGrid) > 0 {
			p.xs = p.XGrid
			p.xDecided = make([]XDecision, len(p.XGrid))
			p.holds = make([]bool, len(p.XGrid))
		} else {
			p.oneX[0] = p.Task.X
			p.xs, p.xDecided, p.holds = p.oneX[:], p.oneD[:], p.oneH[:]
		}
		p.xLeft = len(p.xs)
	}
	if p.gridSettled(v) {
		p.settled = true
		p.release()
		return nil
	}
	sigma := run.At(v.Origin())
	theta1, theta2 := p.aNode, sigma
	if p.Task.Kind != coord.Late {
		theta1, theta2 = sigma, p.aNode
	}
	eng, err := p.engineFor(v)
	if err == nil {
		_, _, err = eng.KnowsAt(theta1, p.xs, theta2, p.holds)
	}
	if err != nil {
		p.noteQueryErr(err)
		return nil
	}
	node := v.Origin()
	for i := range p.xs {
		if !p.xDecided[i].Decided && p.holds[i] {
			p.xDecided[i] = XDecision{Decided: true, Node: node}
			p.xLeft--
		}
	}
	if p.xLeft > 0 {
		return nil
	}
	p.decided = true
	p.release()
	switch {
	case len(p.XGrid) > 0:
		return nil
	case p.ActLabel == "":
		return []string{"b"}
	default:
		return []string{p.ActLabel}
	}
}

// gridSettled reports whether every undecided threshold of the grid is
// settled at this state: Task.Settled holds for the lowest of them, and so
// for every higher one.
func (p *Protocol2) gridSettled(v *run.View) bool {
	task := p.Task
	task.X = math.MaxInt
	for i, x := range p.xs {
		if !p.xDecided[i].Decided && x < task.X {
			task.X = x
		}
	}
	return task.Settled(v, p.aNode)
}
