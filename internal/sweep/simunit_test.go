package sweep_test

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// counted wraps a policy family so that every policy it constructs, that is
// every execution that simulates a run, increments n.
func counted(spec sweep.PolicySpec, n *atomic.Int64) sweep.PolicySpec {
	inner := spec.New
	spec.New = func(seed int64) sim.Policy {
		n.Add(1)
		return inner(seed)
	}
	return spec
}

// TestSimUnitsEqualSeparateExecutions pins the shared simulations: over the
// flagship registry and an x axis, where coord-m and coord-early-m (and
// their per-x variants) record the same run, every row of the grid equals
// the row its scenario's separate execution reports, at one and two
// workers, while the grid simulates fewer runs than it has executing cells.
func TestSimUnitsEqualSeparateExecutions(t *testing.T) {
	scs, err := sweep.Axes{MaxCoordM: 16}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	xs, err := sweep.Axes{Xs: []int{1, 2, 3}, MaxCoordM: 8}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	scs = append(scs, xs...)
	var sims atomic.Int64
	var pols []sweep.PolicySpec
	executing := 0
	for _, p := range sweep.DefaultPolicies() {
		pols = append(pols, counted(p, &sims))
		if p.Deterministic {
			executing += len(scs)
		} else {
			executing += 2 * len(scs)
		}
	}
	g := sweep.Grid{Scenarios: scs, Policies: pols, Seeds: []int64{1, 2}}
	want := dedicatedRun(t, g)
	for _, workers := range []int{1, 2} {
		g.Workers = workers
		sims.Store(0)
		got, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n := sims.Load(); n >= int64(executing) {
			t.Errorf("workers=%d: %d simulations for %d executing cells: no run was shared", workers, n, executing)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if want[i].Err != nil {
				t.Fatalf("%s/%s seed %d: %v", want[i].Scenario, want[i].Policy, want[i].Seed, want[i].Err)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: row %d differs from its separate execution:\n  grid:     %+v\n  separate: %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestSimUnitsSimulateOncePerRecording counts simulations: coord-m16 and
// coord-early-m16 record one run, coord-heavy-m16 (same network, longer
// horizon) and a coord-m16 copy with one external shifted record their own,
// and a coord-m16 copy whose task names a process outside the network
// records coord-m16's run but cannot derive an optimum. Each seed simulates
// once per distinct recording; the bad task's error stays on its own row,
// and its siblings report what their separate executions report.
func TestSimUnitsSimulateOncePerRecording(t *testing.T) {
	m16 := scenario.MultiAgent(16)
	shifted := scenario.MultiAgent(16)
	shifted.Name = "coord-m16-shifted"
	shifted.Externals = append([]run.ExternalEvent(nil), shifted.Externals...)
	shifted.Externals[0].Time++
	shifted.Tasks = append([]coord.Task(nil), shifted.Tasks...)
	for i := range shifted.Tasks {
		shifted.Tasks[i].GoTime++
	}
	shifted.Task = &shifted.Tasks[0]
	badB := scenario.MultiAgent(16)
	badB.Name = "coord-m16-bad-b"
	badB.Tasks = append([]coord.Task(nil), badB.Tasks...)
	badB.Tasks[0].B = model.ProcID(badB.Net.N() + 1)
	badB.Task = &badB.Tasks[0]

	var sims atomic.Int64
	g := sweep.Grid{
		Scenarios: []*scenario.Scenario{m16, scenario.MultiAgentEarly(16), scenario.MultiAgentHeavy(16), shifted, badB},
		Policies:  []sweep.PolicySpec{counted(sweep.DefaultPolicies()[2], &sims)},
		Seeds:     []int64{1, 2},
	}
	const recordings = 3
	for _, workers := range []int{1, 2} {
		g.Workers = workers
		sims.Store(0)
		got, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n, want := sims.Load(), int64(recordings*len(g.Seeds)); n != want {
			t.Errorf("workers=%d: %d simulations, want %d (one per recording and seed)", workers, n, want)
		}
		want := dedicatedRun(t, g)
		for i := range got {
			if got[i].Scenario == badB.Name {
				if !errors.Is(got[i].Err, run.ErrNoNode) {
					t.Errorf("workers=%d: %s seed %d: err %v, want %v", workers, badB.Name, got[i].Seed, got[i].Err, run.ErrNoNode)
				}
				continue
			}
			if got[i].Err != nil {
				t.Errorf("workers=%d: %s seed %d: %v", workers, got[i].Scenario, got[i].Seed, got[i].Err)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: row %d differs from its separate execution:\n  grid:     %+v\n  separate: %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}
