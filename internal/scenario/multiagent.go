package scenario

import (
	"fmt"

	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// CoordinationTasks derives up to m concurrent coordination tasks from a
// generated instance, all triggered by ONE go event: C and A are the
// endpoints of the network's first channel (so C's go message has the
// direct channel Definition 1 requires), and each task gives the part of B
// to a different remaining process. Kinds alternate Late/Early and the
// required separations cycle over small values, so a multi-agent run
// exercises both query directions against one shared history. At most
// Procs-2 tasks exist; fewer than m are returned when the network is too
// small. (It lives here rather than in workload because tasks pull in
// coord, which internal/bounds test fixtures must stay below.)
func CoordinationTasks(in *workload.Instance, m int) []coord.Task {
	arcs := in.Net.Arcs()
	if len(arcs) == 0 {
		return nil
	}
	a := arcs[0]
	out := make([]coord.Task, 0, m)
	for _, p := range in.Net.Procs() {
		if len(out) == m {
			break
		}
		if p == a.From || p == a.To {
			continue
		}
		i := len(out)
		task := coord.Task{C: a.From, A: a.To, B: p, GoTime: 1, X: 1 + i%4}
		if i%2 == 0 {
			task.Kind = coord.Late
		} else {
			task.Kind = coord.Early
		}
		out = append(out, task)
	}
	return out
}

// MultiAgentSizes are the agent counts of the multi-agent coordination
// family: the axis of the shared-engine benchmarks and differential tests.
var MultiAgentSizes = []int{2, 4, 8, 16}

// MultiAgent builds the coord-m<m> scenario: a random strongly-connected
// network with m+2 processes, one go event at C, and m concurrent
// coordination tasks — one Protocol2 agent per remaining process, Late and
// Early alternating — all deciding over the same run. It is the workload of
// the shared per-run knowledge engine (bounds.Shared): every agent's view
// is a restriction of one history, so the standing bounds graph is built
// once and each agent pays only its frontier.
func MultiAgent(m int) *Scenario {
	cfg := workload.DefaultConfig(int64(100 + m))
	cfg.Procs = m + 2
	cfg.ExtraChannels = 2 * (m + 2)
	in := workload.MustGenerate(cfg)
	tasks := CoordinationTasks(in, m)
	if len(tasks) != m {
		panic(fmt.Sprintf("scenario: coord-m%d: derived %d tasks", m, len(tasks)))
	}
	roles := map[string]model.ProcID{"C": tasks[0].C, "A": tasks[0].A}
	for i := range tasks {
		roles[fmt.Sprintf("B%d", i+1)] = tasks[i].B
	}
	sc := &Scenario{
		Name: fmt.Sprintf("coord-m%d", m),
		Description: fmt.Sprintf(
			"multi-agent coordination: %d concurrent Protocol2 agents (n=%d, %d channels) on one run",
			m, in.Net.N(), in.Net.NumChannels()),
		Net:       in.Net,
		Externals: sim.GoAt(tasks[0].C, tasks[0].GoTime, "go"),
		Horizon:   in.Horizon,
		Roles:     roles,
		Tasks:     tasks,
	}
	sc.Task = &sc.Tasks[0]
	return sc
}

// MultiAgentFamily returns the full coord-m{2,4,8,16} family.
func MultiAgentFamily() []*Scenario {
	out := make([]*Scenario, 0, len(MultiAgentSizes))
	for _, m := range MultiAgentSizes {
		out = append(out, MultiAgent(m))
	}
	return out
}

// MultiAgentEarly builds the coord-early-m<m> scenario: the same topology
// and run as MultiAgent(m), but every coordination task is Early-kind, so
// all m agents query with a moving source against a fixed target — the
// inverted shape served by the engines' reverse caches. The mixed coord-m
// family keeps both directions in one run; this family isolates the Early
// steady state for benchmarks and differential tests.
func MultiAgentEarly(m int) *Scenario {
	sc := MultiAgent(m)
	sc.Name = fmt.Sprintf("coord-early-m%d", m)
	sc.Description = fmt.Sprintf(
		"multi-agent coordination, all Early-kind: %d concurrent Protocol2 agents (n=%d, %d channels) on one run",
		m, sc.Net.N(), sc.Net.NumChannels())
	for i := range sc.Tasks {
		sc.Tasks[i].Kind = coord.Early
	}
	return sc
}

// MultiAgentEarlyFamily returns the full coord-early-m{2,4,8,16} family.
func MultiAgentEarlyFamily() []*Scenario {
	out := make([]*Scenario, 0, len(MultiAgentSizes))
	for _, m := range MultiAgentSizes {
		out = append(out, MultiAgentEarly(m))
	}
	return out
}

// ReplayHorizonFactor stretches the horizon of the long-horizon heavy-tail
// family past the multi-agent baseline. Live cells hold one tick of
// schedule at a time, so the factor costs no schedule memory.
const ReplayHorizonFactor = 8

// MultiAgentHeavy builds the coord-heavy-m<m> scenario: the topology and
// tasks of MultiAgent(m) at ReplayHorizonFactor times the horizon, made for
// heavy-tailed latency policies (sim.HeavyTail) whose straggler deliveries
// need the longer window to resolve. DefaultPolicy stays nil (sweeps supply
// the policy axis; canonical single runs fall back to Eager). The family is
// deliberately NOT in the registry: it exists for live cells, and the CLI
// appends it to every live grid.
func MultiAgentHeavy(m int) *Scenario {
	sc := MultiAgent(m)
	sc.Name = fmt.Sprintf("coord-heavy-m%d", m)
	sc.Description = fmt.Sprintf(
		"long-horizon heavy-tail coordination: %d concurrent Protocol2 agents (n=%d, %d channels), horizon x%d",
		m, sc.Net.N(), sc.Net.NumChannels(), ReplayHorizonFactor)
	sc.Horizon *= ReplayHorizonFactor
	return sc
}

// ReplayFamily returns the replay-only scenario family: long-horizon
// heavy-tail coordination at a small and a large agent count.
func ReplayFamily() []*Scenario {
	return []*Scenario{MultiAgentHeavy(4), MultiAgentHeavy(16)}
}

// MultiAgentFaulty builds the coord-faulty-m<m>-<family> scenario: the
// topology and tasks of MultiAgent(m) with a fault plan of the named
// faults.NewPlan family injected per seed. Sweep cells running it exercise
// graceful degradation: crashed processes go silent, Protocol2 agents
// behind the taint frontier withhold their action and report Degraded, and
// every injected bound violation surfaces as a typed error in the cell
// result — never a panic, never an early act.
func MultiAgentFaulty(m int, family string) *Scenario {
	sc := MultiAgent(m)
	sc.Name = fmt.Sprintf("coord-faulty-m%d-%s", m, family)
	sc.Description = fmt.Sprintf(
		"fault-injected coordination (%s plans): %d concurrent Protocol2 agents (n=%d, %d channels) under graceful degradation",
		family, m, sc.Net.N(), sc.Net.NumChannels())
	sc.FaultFamily = family
	return sc
}

// FaultyFamily returns the chaos-sweep scenario family: fault-injected
// coordination at a small and a large agent count, across every seeded plan
// family (crash, link, deadline, chaos). Like ReplayFamily it is NOT in the
// registry — faulted cells are live-only and the CLI appends the family to
// the live grid under -sweep-faults.
func FaultyFamily() []*Scenario {
	out := make([]*Scenario, 0, 2*len(faults.Families()))
	for _, m := range []int{4, 16} {
		for _, fam := range faults.Families() {
			out = append(out, MultiAgentFaulty(m, fam))
		}
	}
	return out
}
