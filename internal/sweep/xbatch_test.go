package sweep_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// xAxisXs is the threshold axis the batched-x differentials sweep.
var xAxisXs = []int{0, 2, 4}

// xVariantScenarios expands the full registry (coordination families raised
// to m=16) across the x axis and appends per-x copies of the chaos family's
// coord-faulty scenarios, mirroring what `-sweep -sweep-x -sweep-faults`
// would enumerate. The faulty copies carry XBase/XValue like any axis
// variant; the batching gate must refuse them anyway.
func xVariantScenarios(t *testing.T) []*scenario.Scenario {
	t.Helper()
	scs, err := sweep.Axes{Xs: xAxisXs, MaxCoordM: 16}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xAxisXs {
		for _, sc := range scenario.FaultyFamily() {
			if !strings.HasSuffix(sc.Name, "-chaos") {
				continue
			}
			cp := *sc
			cp.Name = fmt.Sprintf("%s@x=%d", sc.Name, x)
			cp.XBase = sc.Name
			cp.XValue = x
			if x != 0 {
				cp.Tasks = append([]coord.Task(nil), sc.Tasks...)
				for i := range cp.Tasks {
					cp.Tasks[i].X = x
				}
				cp.Task = &cp.Tasks[0]
			}
			scs = append(scs, &cp)
		}
	}
	return scs
}

// xPolicies are the policies of the batched-x differentials: one
// deterministic (standing-prefix traffic, copied seeds) and one seeded.
var xPolicies = []sweep.PolicySpec{
	{Name: "eager", New: func(int64) sim.Policy { return sim.Eager{} }, Deterministic: true},
	{Name: "random", New: func(seed int64) sim.Policy { return sim.NewRandom(seed) }},
}

func xGrid(t *testing.T) sweep.Grid {
	return sweep.Grid{Live: xVariantScenarios(t), Policies: xPolicies, Seeds: []int64{1}}
}

// dedicatedRun runs every scenario of g, sim cells first, in its own
// one-scenario grid, which can form neither an x-group nor a sim unit, and
// returns the rows in g's enumeration order: the dedicated baseline.
func dedicatedRun(t *testing.T, g sweep.Grid) []sweep.Result {
	t.Helper()
	var out []sweep.Result
	run := func(one sweep.Grid) {
		rs, err := one.Run()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	for _, sc := range g.Scenarios {
		one := g
		one.Scenarios, one.Live = []*scenario.Scenario{sc}, nil
		run(one)
	}
	for _, sc := range g.Live {
		one := g
		one.Scenarios, one.Live = nil, []*scenario.Scenario{sc}
		run(one)
	}
	return out
}

// semantic strips a Result down to the fields with run-level meaning,
// erasing execution attribution: the mode tag, prefix-cache verdict,
// execution counters and the fanout marker all describe HOW the answer was computed — an x-batched group
// legitimately concentrates them on its primary row — while everything kept
// here must be byte-identical between a batched group and dedicated per-x
// executions.
func semantic(r sweep.Result) sweep.Result {
	r.Mode = ""
	r.Prefix = ""
	r.Stats = bounds.EngineStats{}
	r.XFanout = 0
	return r
}

// TestXBatchMatchesDedicatedCells is the batched sweep's acceptance
// differential: over the full registry expanded across the x axis — the
// m=16 coordination families and the chaos-family coord-faulty scenarios
// included — every per-x row of the batched grid is semantically identical
// to a dedicated per-x execution of the same cell; batchable families actually collapse (XFanout
// covers the whole x axis) and the faulted cells are refused batching.
func TestXBatchMatchesDedicatedCells(t *testing.T) {
	g := xGrid(t)
	batched, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	dedicated := dedicatedRun(t, g)
	if len(batched) != len(dedicated) {
		t.Fatalf("result counts differ: %d batched, %d dedicated", len(batched), len(dedicated))
	}
	sawEarly16 := false
	for i := range batched {
		b, d := batched[i], dedicated[i]
		if b.Err != nil || d.Err != nil {
			t.Fatalf("%s/%s seed %d: cell error: batched=%v dedicated=%v",
				b.Scenario, b.Policy, b.Seed, b.Err, d.Err)
		}
		if strings.HasPrefix(b.Scenario, "coord-early-m16@") {
			sawEarly16 = true
		}
		if !reflect.DeepEqual(semantic(b), semantic(d)) {
			t.Errorf("cell %d differs from dedicated per-x execution:\n batched   %+v\n dedicated %+v",
				i, semantic(b), semantic(d))
		}
		if d.XFanout != 0 {
			t.Errorf("cell %d: dedicated run reports fanout %d, want 0", i, d.XFanout)
		}
		if strings.Contains(b.Scenario, "coord-faulty") && b.XFanout != 0 {
			t.Errorf("%s: faulted cell joined an x batch (fanout %d)", b.Scenario, b.XFanout)
		}
	}
	if !sawEarly16 {
		t.Fatal("grid lost the coord-early-m16 family")
	}

	// Fanout accounting: within the batched run, each base family's rows
	// under one (policy, seed) either collapsed onto one primary answering
	// the whole axis, or (join refused: the x override moved more than task
	// thresholds, or faults) ran dedicated with no fanout at all.
	fanout := map[string]int{}
	rows := map[string]int{}
	for _, r := range batched {
		base, _, isVariant := strings.Cut(r.Scenario, "@x=")
		if !isVariant {
			continue
		}
		key := base + "/" + r.Policy
		rows[key]++
		fanout[key] += r.XFanout
	}
	collapsed := 0
	for key, n := range rows {
		if fanout[key] != 0 && fanout[key] != n {
			t.Errorf("%s: fanout %d covers only part of the %d-row x axis", key, fanout[key], n)
		}
		if fanout[key] == n {
			collapsed++
		}
		if strings.Contains(key, "coord-faulty") && fanout[key] != 0 {
			t.Errorf("%s: faulted family batched (fanout %d)", key, fanout[key])
		}
	}
	if collapsed == 0 {
		t.Fatal("no x-axis family collapsed onto a batched execution")
	}
	for _, key := range []string{"coord-m16/eager", "coord-early-m16/random"} {
		if fanout[key] != rows[key] || rows[key] != len(xAxisXs) {
			t.Errorf("%s: fanout %d over %d rows, want full %d-point collapse",
				key, fanout[key], rows[key], len(xAxisXs))
		}
	}
}
