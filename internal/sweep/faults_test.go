package sweep_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// chaosGrid is the chaos sweep of the tests: every coord-faulty scenario
// (both sizes, all four plan families) crossed with the eager policy and a
// couple of seeds, run live-only.
func chaosGrid(workers int) sweep.Grid {
	return sweep.Grid{
		Live: scenario.FaultyFamily(),
		Policies: []sweep.PolicySpec{
			{Name: "eager", New: func(int64) sim.Policy { return sim.Eager{} }, Deterministic: true},
		},
		Seeds:   []int64{1, 2},
		Workers: workers,
	}
}

// TestChaosSweep pins the chaos sweep's acceptance bar: across the whole
// coord-faulty family not one cell errors or panics (injected violations
// are data, not errors), the plans actually fire, and degradation reaches
// agents somewhere in the grid.
func TestChaosSweep(t *testing.T) {
	results, err := chaosGrid(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	violations, degraded, crashed := 0, 0, 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/%s seed %d: cell error: %v", r.Scenario, r.Policy, r.Seed, r.Err)
		}
		if r.Mode != sweep.ModeReplay {
			t.Fatalf("%s: faulted cell ran in mode %q", r.Scenario, r.Mode)
		}
		violations += r.Violations
		degraded += r.Degraded
		crashed += r.Crashed
	}
	if violations == 0 || degraded == 0 || crashed == 0 {
		t.Fatalf("chaos sweep toothless: %d violations, %d degraded, %d crashed",
			violations, degraded, crashed)
	}

	aggs := sweep.Summarize(results)
	table := sweep.Table(aggs)
	if !strings.Contains(table, "degr") {
		t.Fatalf("sweep table lost the degradation column:\n%s", table)
	}
	var sb strings.Builder
	if err := sweep.Write(&sb, "csv", aggs); err != nil {
		t.Fatal(err)
	}
	head := sb.String()[:strings.Index(sb.String(), "\n")]
	for _, col := range []string{"degraded", "crashed", "violations", "err"} {
		if !strings.Contains(head, col) {
			t.Fatalf("CSV header lost %q column: %s", col, head)
		}
	}
}

// TestChaosSweepDeterministic pins scheduling-independence: the same chaos
// grid run serially and with parallel workers yields identical per-cell
// results.
func TestChaosSweepDeterministic(t *testing.T) {
	serial, err := chaosGrid(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := chaosGrid(4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("cell %d differs across worker counts:\n serial   %+v\n parallel %+v",
				i, serial[i], parallel[i])
		}
	}
}
