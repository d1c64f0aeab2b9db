package sweep

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

func fullGrid(workers int) Grid {
	return Grid{
		Scenarios: scenario.All(scenario.Registry(0)),
		Policies:  DefaultPolicies(),
		Seeds:     []int64{1, 2, 3},
		Workers:   workers,
	}
}

// TestRunReproducibleAcrossWorkerCounts pins the sweep contract: the result
// slice over the full registry is identical whether cells run sequentially
// or across GOMAXPROCS workers.
func TestRunReproducibleAcrossWorkerCounts(t *testing.T) {
	seq, err := fullGrid(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := fullGrid(runtime.GOMAXPROCS(0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cell %d differs:\n  1 worker:  %+v\n  parallel:  %+v", i, seq[i], par[i])
		}
	}
	if !reflect.DeepEqual(Summarize(seq), Summarize(par)) {
		t.Error("aggregates differ across worker counts")
	}
}

// TestRunEnumerationOrder checks results come back scenario-major, then
// policy, then seed, independent of scheduling.
func TestRunEnumerationOrder(t *testing.T) {
	g := fullGrid(0)
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != g.Size() {
		t.Fatalf("got %d results, want %d", len(results), g.Size())
	}
	i := 0
	for _, sc := range g.Scenarios {
		for _, pol := range g.Policies {
			for _, seed := range g.Seeds {
				res := results[i]
				if res.Scenario != sc.Name || res.Policy != pol.Name || res.Seed != seed {
					t.Fatalf("result %d is (%s,%s,%d), want (%s,%s,%d)",
						i, res.Scenario, res.Policy, res.Seed, sc.Name, pol.Name, seed)
				}
				i++
			}
		}
	}
}

// TestRunOutcomes sanity-checks the aggregated metrics on a known scenario:
// figure2b coordinates under every policy, and lazy delivery acts no
// earlier than eager.
func TestRunOutcomes(t *testing.T) {
	reg := scenario.Registry(0)
	g := Grid{
		Scenarios: []*scenario.Scenario{reg["figure2b"]},
		Policies:  DefaultPolicies(),
		Seeds:     []int64{1, 2, 3, 4},
	}
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	aggs := Summarize(results)
	if len(aggs) != len(g.Policies) {
		t.Fatalf("got %d aggregates, want %d", len(aggs), len(g.Policies))
	}
	byPolicy := make(map[string]Aggregate)
	for _, a := range aggs {
		if a.Errors != 0 {
			t.Fatalf("%s/%s: %d errors", a.Scenario, a.Policy, a.Errors)
		}
		if a.Acted != a.TaskRuns {
			t.Errorf("%s/%s: acted %d/%d, want all", a.Scenario, a.Policy, a.Acted, a.TaskRuns)
		}
		byPolicy[a.Policy] = a
	}
	if e, l := byPolicy["eager"], byPolicy["lazy"]; e.Gap.Mean > l.Gap.Mean {
		t.Errorf("eager gap %.2f > lazy gap %.2f", e.Gap.Mean, l.Gap.Mean)
	}
}

// TestRunLiveCells pins the live grid dimension: live cells enumerate after
// the sim cells (scenario-major, policy, seed), report under the default
// live mode ("replay") with per-agent tallies and batch counters, and —
// because every Protocol2 agent must agree with the offline analysis — the
// number of acting agents matches RunOptimal on the same recorded runs. The
// whole block runs through ONE NetworkEngine per network, across workers,
// so this also exercises concurrent runs of a shared engine.
func TestRunLiveCells(t *testing.T) {
	reg := scenario.Registry(0)
	g := Grid{
		Scenarios: []*scenario.Scenario{reg["figure2b"]},
		Live:      []*scenario.Scenario{reg["coord-m2"], reg["coord-m4"]},
		Policies:  DefaultPolicies(),
		Seeds:     []int64{1, 2},
		Workers:   4,
	}
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != g.Size() {
		t.Fatalf("got %d results, want %d", len(results), g.Size())
	}
	nSim := len(g.Scenarios) * len(g.Policies) * len(g.Seeds)
	i := nSim
	for _, sc := range g.Live {
		for _, pol := range g.Policies {
			for _, seed := range g.Seeds {
				res := results[i]
				if res.Scenario != sc.Name || res.Policy != pol.Name || res.Seed != seed || res.Mode != ModeReplay {
					t.Fatalf("result %d is (%s,%s,%d,%s), want replay (%s,%s,%d)",
						i, res.Scenario, res.Policy, res.Seed, res.Mode, sc.Name, pol.Name, seed)
				}
				if res.Err != nil {
					t.Fatalf("live cell %d failed: %v", i, res.Err)
				}
				if res.Agents != len(sc.Tasks) {
					t.Fatalf("cell %d hosts %d agents, want %d", i, res.Agents, len(sc.Tasks))
				}
				if res.Stats.ReplayBatches == 0 {
					t.Fatalf("cell %d reports no replay batches", i)
				}
				// Cross-check the acting-agent count against the offline
				// optimum on a fresh simulation of the same cell.
				r, err := sc.Simulate(pol.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				wantActed := 0
				for j := range sc.Tasks {
					out, err := sc.Tasks[j].RunOptimal(r)
					if err != nil {
						t.Fatal(err)
					}
					if out.Acted {
						wantActed++
					}
				}
				if res.AgentsActed != wantActed {
					t.Fatalf("cell %d: %d agents acted, offline says %d", i, res.AgentsActed, wantActed)
				}
				i++
			}
		}
	}
	aggs := Summarize(results)
	var liveRows int
	for _, a := range aggs {
		if a.Mode == ModeReplay {
			liveRows++
			if a.AgentRuns == 0 {
				t.Fatalf("live aggregate %s/%s has no agent runs", a.Scenario, a.Policy)
			}
			if a.Stats.ReplayBatches == 0 {
				t.Fatalf("replay aggregate %s/%s carries no batch counter", a.Scenario, a.Policy)
			}
		}
	}
	if want := len(g.Live) * len(g.Policies); liveRows != want {
		t.Fatalf("got %d replay aggregate rows, want %d", liveRows, want)
	}
}

// TestRunLiveModesAgree is the sweep-level differential between the two
// cell modes: the same scenarios run as sim cells and as live cells must
// report identical run shapes — nodes, deliveries, pending messages — cell
// for cell, since both take their schedule from sim.Stepper. The empty live
// mode and ModeReplay name the same grid, and any other mode (the retired
// "live" included) is rejected up front.
func TestRunLiveModesAgree(t *testing.T) {
	reg := scenario.Registry(0)
	scs := []*scenario.Scenario{reg["coord-m2"], reg["coord-m4"]}
	mk := func(mode string) Grid {
		return Grid{
			Scenarios: scs,
			Live:      scs,
			LiveMode:  mode,
			Policies:  DefaultPolicies(),
			Seeds:     []int64{1, 2},
			Workers:   4,
		}
	}
	results, err := mk("").Run()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := mk(ModeReplay).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, explicit) {
		t.Fatal("the empty live mode and ModeReplay produced different grids")
	}
	nSim := len(results) / 2
	for i := 0; i < nSim; i++ {
		s, l := results[i], results[nSim+i]
		if s.Err != nil || l.Err != nil {
			t.Fatalf("cell %d failed: sim=%v live=%v", i, s.Err, l.Err)
		}
		if s.Mode != ModeSim || l.Mode != ModeReplay {
			t.Fatalf("cell %d modes: %q vs %q", i, s.Mode, l.Mode)
		}
		if s.Scenario != l.Scenario || s.Policy != l.Policy || s.Seed != l.Seed {
			t.Fatalf("cell %d coordinates: %s/%s/%d vs %s/%s/%d",
				i, s.Scenario, s.Policy, s.Seed, l.Scenario, l.Policy, l.Seed)
		}
		if s.Nodes != l.Nodes || s.Deliveries != l.Deliveries || s.Pending != l.Pending {
			t.Errorf("cell %d (%s/%s/%d) shapes differ: sim %d/%d/%d, live %d/%d/%d",
				i, s.Scenario, s.Policy, s.Seed, s.Nodes, s.Deliveries, s.Pending,
				l.Nodes, l.Deliveries, l.Pending)
		}
	}
	for _, mode := range []string{"live", "threads"} {
		if _, err := mk(mode).Run(); err == nil {
			t.Errorf("live mode %q accepted", mode)
		}
	}
}

// TestRunLiveReproducibleAcrossWorkerCounts extends the determinism
// contract to live cells: one shared engine per network must not let worker
// scheduling leak into results.
func TestRunLiveReproducibleAcrossWorkerCounts(t *testing.T) {
	reg := scenario.Registry(0)
	mk := func(workers int) Grid {
		return Grid{
			Live:     []*scenario.Scenario{reg["coord-m2"]},
			Policies: DefaultPolicies(),
			Seeds:    []int64{1, 2, 3},
			Workers:  workers,
		}
	}
	seq, err := mk(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := mk(runtime.GOMAXPROCS(0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("live cells differ across worker counts:\n  1 worker: %+v\n  parallel: %+v", seq, par)
	}
}

// TestRunPrefixSharing pins the prefix verdicts of deterministic live
// cells: per (scenario, deterministic policy), the first seed builds and
// freezes the run's standing graph (miss) and every later seed is served by
// it (hit, a copied row); seed-sensitive policies bypass the cache; the
// engine report's totals agree with the per-cell tallies, while its runs
// count only the cells that executed; and the aggregates carry the group
// counts.
func TestRunPrefixSharing(t *testing.T) {
	reg := scenario.Registry(0)
	g := Grid{
		Live:     []*scenario.Scenario{reg["coord-m2"], reg["coord-m4"]},
		Policies: DefaultPolicies(),
		Seeds:    []int64{1, 2, 3},
		Workers:  4,
	}
	results, report, err := g.RunWithEngines()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, executed := 0, 0, 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("cell %d failed: %v", i, res.Err)
		}
		_, spec, _, _ := g.decode(i)
		if !spec.Deterministic || i%len(g.Seeds) == 0 {
			executed++
		}
		switch {
		case !spec.Deterministic:
			if res.Prefix != "" {
				t.Fatalf("cell %d (%s): seed-sensitive policy reports prefix %q", i, res.Policy, res.Prefix)
			}
		case i%len(g.Seeds) == 0:
			// First seed of each (scenario, policy): distinct runs per
			// deterministic policy on these scenarios, so each builds afresh.
			if res.Prefix != PrefixMiss {
				t.Fatalf("cell %d (%s/%s seed %d): prefix %q, want miss",
					i, res.Scenario, res.Policy, res.Seed, res.Prefix)
			}
			misses++
		default:
			if res.Prefix != PrefixHit {
				t.Fatalf("cell %d (%s/%s seed %d): prefix %q, want hit",
					i, res.Scenario, res.Policy, res.Seed, res.Prefix)
			}
			hits++
		}
	}
	if report.Networks != 2 {
		t.Fatalf("report covers %d networks, want 2", report.Networks)
	}
	if int(report.Stats.PrefixHits) != hits || int(report.Stats.PrefixMisses) != misses {
		t.Fatalf("report %d/%d hits/misses, cells say %d/%d",
			report.Stats.PrefixHits, report.Stats.PrefixMisses, hits, misses)
	}
	if report.Stats.PrefixEvictions != 0 {
		t.Fatalf("%d evictions on a small grid", report.Stats.PrefixEvictions)
	}
	if want := int64(executed); report.Stats.Runs != want {
		t.Fatalf("report stamped %d runs, want %d", report.Stats.Runs, want)
	}
	if report.Stats.Relaxations == 0 || report.Stats.CloneBytes == 0 {
		t.Fatal("work counters stayed zero across a live sweep")
	}
	for _, a := range Summarize(results) {
		if a.Mode != ModeReplay {
			continue
		}
		if a.Policy == "random" || a.Policy == "heavy" {
			if a.Stats.PrefixHits != 0 || a.Stats.PrefixMisses != 0 {
				t.Fatalf("%s/%s: seed-sensitive aggregate counts cache traffic", a.Scenario, a.Policy)
			}
			continue
		}
		if a.Stats.PrefixMisses != 1 || a.Stats.PrefixHits != int64(len(g.Seeds)-1) {
			t.Fatalf("%s/%s: %d hits / %d misses, want %d/1",
				a.Scenario, a.Policy, a.Stats.PrefixHits, a.Stats.PrefixMisses, len(g.Seeds)-1)
		}
	}
}

func TestRunEmptyGrid(t *testing.T) {
	if _, err := (Grid{}).Run(); !errors.Is(err, ErrEmptyGrid) {
		t.Errorf("got %v, want ErrEmptyGrid", err)
	}
}

func TestRunRejectsNilScenario(t *testing.T) {
	g := Grid{
		Scenarios: []*scenario.Scenario{nil},
		Policies:  DefaultPolicies(),
		Seeds:     []int64{1},
	}
	if _, err := g.Run(); err == nil {
		t.Error("nil scenario accepted")
	}
}

// TestCellRecordsErrors checks a failing cell is reported in-place instead
// of aborting the sweep.
func TestCellRecordsErrors(t *testing.T) {
	reg := scenario.Registry(0)
	bad := Grid{
		Scenarios: []*scenario.Scenario{reg["figure1"]},
		Policies: []PolicySpec{{
			Name: "broken",
			New: func(int64) sim.Policy {
				return sim.Func{ID: "broken", F: func(sim.Send, model.Bounds) int { return -1 }}
			},
		}},
		Seeds: []int64{1},
	}
	results, err := bad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("broken policy not reported: %+v", results)
	}
	aggs := Summarize(results)
	if len(aggs) != 1 || aggs[0].Errors != 1 {
		t.Errorf("aggregate errors = %+v, want 1", aggs)
	}
}

func TestTableDeterministic(t *testing.T) {
	results, err := fullGrid(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	tab := Table(Summarize(results))
	if !strings.Contains(tab, "figure2b") || !strings.Contains(tab, "lazy") {
		t.Fatalf("table missing expected rows:\n%s", tab)
	}
	results2, err := fullGrid(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if tab2 := Table(Summarize(results2)); tab != tab2 {
		t.Error("two sweeps rendered different tables")
	}
}
