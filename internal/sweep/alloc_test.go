package sweep

import (
	"runtime"
	"testing"

	"github.com/clockless/zigzag/internal/scenario"
)

// TestSweepReusesRecordings bounds what a sweep's steady state allocates:
// a sim-only grid of coord-m16 under the random policy at 8 seeds, on one
// worker, against the same 8 cells simulated and solved as fresh
// executions. Each grid execution records into the tables the one before
// it recycled, so the grid allocates 0.17 to 0.19 of the fresh executions'
// bytes (2-vCPU VM, go1.24.0); without reuse it allocates as much as they
// do.
func TestSweepReusesRecordings(t *testing.T) {
	const limit = 0.3
	sc := scenario.MultiAgent(16)
	spec := DefaultPolicies()[2]
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	g := Grid{Scenarios: []*scenario.Scenario{sc}, Policies: []PolicySpec{spec}, Seeds: seeds, Workers: 1}
	fresh := allocated(t, func() {
		for _, seed := range seeds {
			r, err := sc.Simulate(spec.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.Task.RunOptimal(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	grid := allocated(t, func() {
		results, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	})
	ratio := float64(grid) / float64(fresh)
	if ratio > limit {
		t.Errorf("the grid allocates %d bytes, %.2f of %d for fresh executions, want <= %.2f", grid, ratio, fresh, limit)
	} else {
		t.Logf("the grid allocates %d bytes, %.2f of %d for fresh executions", grid, ratio, fresh)
	}
}

// allocated returns the bytes f allocates.
func allocated(t *testing.T, f func()) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
