package sweep_test

import (
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestDeterministicPoliciesIgnoreSeed is the safety net under the grid's
// copied rows: the sweep executes only the first seed of a Deterministic
// policy's fault-free cells and copies the rest, so a family marked
// Deterministic whose schedule did read the seed would copy wrong rows
// without any error. Over the flagship registry and the replay family, two
// distinct seeds of every marked family must record equal runs.
func TestDeterministicPoliciesIgnoreSeed(t *testing.T) {
	scs, err := sweep.Axes{MaxCoordM: 16}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	scs = append(scs, scenario.ReplayFamily()...)
	marked := 0
	for _, spec := range sweep.DefaultPolicies() {
		if !spec.Deterministic {
			continue
		}
		marked++
		for _, sc := range scs {
			a, err := sc.Simulate(spec.New(1))
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Simulate(spec.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint() != b.Fingerprint() ||
				!reflect.DeepEqual(a.Deliveries(), b.Deliveries()) ||
				!reflect.DeepEqual(a.Externals(), b.Externals()) {
				t.Errorf("%s/%s: seeds 1 and 7 record different runs", sc.Name, spec.Name)
			}
		}
	}
	if marked == 0 {
		t.Fatal("no default policy is marked Deterministic")
	}
}

// copyGrid has sim cells, live cells, a deterministic x-batched pair and a
// faulted live scenario (whose plan reads the seed, so it is never copied).
func copyGrid(t *testing.T, seeds []int64, workers int) sweep.Grid {
	t.Helper()
	reg := scenario.Registry(0)
	xs, err := sweep.Axes{Xs: []int{1, 2}, MaxCoordM: 4}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	live := []*scenario.Scenario{reg["coord-m2"], reg["coord-m4"], reg["coord-early-m4"],
		scenario.MultiAgentFaulty(4, "chaos")}
	for _, sc := range xs {
		if sc.XBase == "coord-early-m2" {
			live = append(live, sc)
		}
	}
	var pols []sweep.PolicySpec
	for _, p := range sweep.DefaultPolicies() {
		if p.Name != "heavy" {
			pols = append(pols, p)
		}
	}
	return sweep.Grid{
		Scenarios: []*scenario.Scenario{reg["figure2b"], reg["coord-m4"]},
		Live:      live,
		Policies:  pols,
		Seeds:     seeds,
		Workers:   workers,
	}
}

// TestRunCopiesEqualExecutions pins the copied rows: a three-seed grid,
// whose deterministic cells execute their first seed only, reports every
// row exactly as a single-seed grid of that row's seed executes it, except
// that a later seed's prefix verdict reads hit (the first seed's run served
// it). The engine report keeps one prefix verdict per cell and the x-fanout
// of every group, and the rows do not depend on the worker count.
func TestRunCopiesEqualExecutions(t *testing.T) {
	seeds := []int64{1, 2, 3}
	got, rep, err := copyGrid(t, seeds, 2).RunWithEngines()
	if err != nil {
		t.Fatal(err)
	}
	var verdicts, fanout, hits int64
	copied, xCopied := 0, 0
	for k, seed := range seeds {
		want, srep, err := copyGrid(t, []int64{seed}, 1).RunWithEngines()
		if err != nil {
			t.Fatal(err)
		}
		verdicts += srep.Stats.PrefixHits + srep.Stats.PrefixMisses
		fanout += srep.Stats.XFanout
		for c, w := range want {
			i := c*len(seeds) + k
			if w.Err != nil {
				t.Fatalf("cell %d (%s/%s seed %d): %v", i, w.Scenario, w.Policy, seed, w.Err)
			}
			if k > 0 && w.Prefix != "" {
				w.Prefix, w.Stats.PrefixHits, w.Stats.PrefixMisses = sweep.PrefixHit, 1, 0
				copied++
				if w.XFanout > 0 {
					xCopied++
				}
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Errorf("cell %d differs from its single-seed execution:\n  grid:   %+v\n  single: %+v", i, got[i], w)
			}
		}
	}
	for _, r := range got {
		if r.Prefix == sweep.PrefixHit {
			hits++
		}
	}
	if copied == 0 || xCopied == 0 {
		t.Fatalf("%d copied rows, %d copied x primaries: the grid exercises no copy", copied, xCopied)
	}
	st := rep.Stats
	if st.PrefixHits+st.PrefixMisses != verdicts || st.PrefixHits != hits || st.XFanout != fanout {
		t.Errorf("engine report %d hits/%d misses, x-fanout %d; want %d verdicts, %d hits, x-fanout %d",
			st.PrefixHits, st.PrefixMisses, st.XFanout, verdicts, hits, fanout)
	}
	if st.ScratchLeased != 0 {
		t.Errorf("%d scratches still leased after the sweep", st.ScratchLeased)
	}
	seq, err := copyGrid(t, seeds, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Error("rows differ between 1 and 2 workers")
	}
}
