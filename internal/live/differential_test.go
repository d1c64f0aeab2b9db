package live

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// requireIdenticalRuns asserts that two recordings are byte-identical:
// same deliveries (with times and channels), externals, pending messages
// and node times.
func requireIdenticalRuns(t *testing.T, label string, got, want *run.Run) {
	t.Helper()
	d1, d2 := got.Deliveries(), want.Deliveries()
	if len(d1) != len(d2) {
		t.Fatalf("%s: deliveries %d vs %d", label, len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("%s: delivery %d: %v vs %v", label, i, d1[i], d2[i])
		}
	}
	e1, e2 := got.Externals(), want.Externals()
	if len(e1) != len(e2) {
		t.Fatalf("%s: externals %d vs %d", label, len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("%s: external %d: %v vs %v", label, i, e1[i], e2[i])
		}
	}
	p1, p2 := got.PendingMessages(), want.PendingMessages()
	if len(p1) != len(p2) {
		t.Fatalf("%s: pending %d vs %d", label, len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("%s: pending %d: %v vs %v", label, i, p1[i], p2[i])
		}
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: nodes %d vs %d", label, got.NumNodes(), want.NumNodes())
	}
	for _, p := range want.Net().Procs() {
		if got.LastIndex(p) != want.LastIndex(p) {
			t.Fatalf("%s: proc %d last index %d vs %d", label, p, got.LastIndex(p), want.LastIndex(p))
		}
		for k := 0; k <= want.LastIndex(p); k++ {
			b := run.BasicNode{Proc: p, Index: k}
			if got.MustTime(b) != want.MustTime(b) {
				t.Fatalf("%s: time of %s: %d vs %d", label, b, got.MustTime(b), want.MustTime(b))
			}
		}
	}
}

// TestLiveMatchesSimulatorOnRandomFamily extends the Figure-2b-sized
// equivalence to the registry's random-topology family: sim.Simulate must
// record byte-identical runs to the reference environment on every
// random-n{6,8,10} scenario under every policy.
func TestLiveMatchesSimulatorOnRandomFamily(t *testing.T) {
	factories := []func() sim.Policy{
		func() sim.Policy { return sim.Eager{} },
		func() sim.Policy { return sim.Lazy{} },
		func() sim.Policy { return sim.NewRandom(31) },
	}
	for _, sc := range scenario.RandomFamily() {
		for _, mk := range factories {
			pol := mk()
			label := fmt.Sprintf("%s/%s", sc.Name, pol.Name())
			res, err := refExecute(Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: pol, Externals: sc.Externals,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := res.Run.Validate(); err != nil {
				t.Fatalf("%s: reference run invalid: %v", label, err)
			}
			want, err := sc.Simulate(mk())
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalRuns(t, label, want, res.Run)
		}
	}
}

// TestLiveAllocationGuard keeps a live execution allocation-light: the
// stepper's arrivals and externals live in horizon-indexed slice buckets,
// per-process slabs replace per-tick grouping maps and their sort, and
// each batch is appended to the one recorded run. The bound has slack
// over the measured count but sits far below per-tick map churn.
func TestLiveAllocationGuard(t *testing.T) {
	net := model.MustComplete(4, 1, 5)
	cfg := Config{Net: net, Horizon: 40, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go")}
	const limit = 400
	got := testing.AllocsPerRun(10, func() {
		if _, err := Replay(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("live.Replay allocates %.0f times per run, want <= %d", got, limit)
	}
}

// randomTask synthesizes a coordination task on a generated instance: C and
// A are the endpoints of one of the network's channels (so C's go message
// has a direct channel, as Definition 1 requires) and B is another process.
func randomTask(in *workload.Instance, seed int64) (coord.Task, bool) {
	arcs := in.Net.Arcs()
	if len(arcs) == 0 || in.Net.N() < 3 {
		return coord.Task{}, false
	}
	a := arcs[int(seed)%len(arcs)]
	task := coord.Task{C: a.From, A: a.To, GoTime: 1, X: 1 + int(seed%3)}
	if seed%2 == 0 {
		task.Kind = coord.Late
	} else {
		task.Kind = coord.Early
	}
	for _, p := range in.Net.Procs() {
		if p != task.A && p != task.C {
			task.B = p
			break
		}
	}
	return task, task.B != 0
}

// TestProtocol2EnginesMatchOfflineOnRandomScenarios is the satellite
// property test: across random scenarios and policy seeds, the online
// agent acts at exactly the same state (and time) as the offline
// (coord.Task).RunOptimal over the recorded run — under both the
// rebuild-per-state baseline and the default incremental engine (a
// private one-handle run), which must also agree with each other.
func TestProtocol2EnginesMatchOfflineOnRandomScenarios(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		task, ok := randomTask(in, seed)
		if !ok {
			continue
		}
		type outcome struct {
			acted bool
			node  run.BasicNode
			time  model.Time
		}
		var results [2]outcome
		var recordings [2]*run.Run
		for e, rebuild := range []bool{true, false} {
			agent := &Protocol2{Task: task, Rebuild: rebuild}
			res, err := Replay(Config{
				Net: in.Net, Horizon: in.Horizon, Policy: sim.NewRandom(seed * 7),
				Externals: sim.GoAt(task.C, task.GoTime, "go"),
				Agents:    map[model.ProcID]Agent{task.B: agent},
			})
			if err != nil {
				t.Fatalf("seed %d rebuild=%v: %v", seed, rebuild, err)
			}
			if err := agent.Err(); err != nil {
				t.Fatalf("seed %d rebuild=%v: agent: %v", seed, rebuild, err)
			}
			recordings[e] = res.Run
			for i := range res.Actions {
				if res.Actions[i].Label == "b" {
					results[e] = outcome{acted: true, node: res.Actions[i].Node, time: res.Actions[i].Time}
					break
				}
			}
			offline, err := task.RunOptimal(res.Run)
			if err != nil {
				t.Fatalf("seed %d rebuild=%v: offline: %v", seed, rebuild, err)
			}
			if offline.Acted != results[e].acted {
				t.Fatalf("seed %d rebuild=%v: offline acted=%v online acted=%v",
					seed, rebuild, offline.Acted, results[e].acted)
			}
			if offline.Acted && (results[e].node != offline.ActNode || results[e].time != offline.ActTime) {
				t.Fatalf("seed %d rebuild=%v: online %s@%d vs offline %s@%d",
					seed, rebuild, results[e].node, results[e].time, offline.ActNode, offline.ActTime)
			}
		}
		// Same deterministic policy seed => same run => the two engines are
		// directly comparable.
		requireIdenticalRuns(t, fmt.Sprintf("seed %d engines", seed), recordings[1], recordings[0])
		if results[0] != results[1] {
			t.Fatalf("seed %d: engines disagree: rebuild %+v online %+v", seed, results[0], results[1])
		}
	}
}
