package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenGrid is a small live grid that exercises every counter column of the
// exports: coord-m2 and coord-early-m2 (Late and Early agents, so both the
// forward and the reverse caches serve) across a 2-point x axis (batched
// executions with x-fanout) under eager (standing-prefix traffic) and random
// (seeded schedules), one seed. The axis includes x = -2, where the Early
// agents query and act: with x >= 1 they settle as soon as a's node enters
// their past (coord.Task.Settled) and the reverse cache stays idle. Plain
// coord-m2 and coord-early-m2 cells and one coord-faulty-m4-chaos cell
// follow, so the grid also pins live cells that form no x-group: fault-free
// ones and a faulted one (degradations, crashes, violations). The same six
// coord-m2 and coord-early-m2 scenarios also run as sim cells, which record
// one run per policy and read each task's offline optimum from it.
func goldenGrid(t *testing.T) Grid {
	t.Helper()
	scs, err := Axes{Xs: []int{-2, 3}, MaxCoordM: 2}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Policies: []PolicySpec{
			{Name: "eager", New: func(int64) sim.Policy { return sim.Eager{} }, Deterministic: true},
			{Name: "random", New: func(seed int64) sim.Policy { return sim.NewRandom(seed) }},
		},
		Seeds:   []int64{1},
		Workers: 1,
	}
	reg := scenario.Registry(0)
	for _, sc := range scs {
		if sc.XBase == "coord-m2" || sc.XBase == "coord-early-m2" {
			g.Scenarios = append(g.Scenarios, sc)
			g.Live = append(g.Live, sc)
		}
	}
	g.Scenarios = append(g.Scenarios, reg["coord-m2"], reg["coord-early-m2"])
	g.Live = append(g.Live, reg["coord-m2"], reg["coord-early-m2"])
	for _, sc := range scenario.FaultyFamily() {
		if sc.Name == "coord-faulty-m4-chaos" {
			g.Live = append(g.Live, sc)
		}
	}
	return g
}

// goldenCSVHeader is the CSV schema, pinned literally: a column rename or
// reorder breaks every downstream figure script.
const goldenCSVHeader = "scenario,mode,policy,runs,errors," +
	"nodes_mean,nodes_min,nodes_p50,nodes_p90,nodes_max," +
	"deliveries_mean,deliveries_min,deliveries_p50,deliveries_p90,deliveries_max," +
	"task_runs,acted,gap_mean,gap_min,gap_p50,gap_p90,gap_max,gap_stddev," +
	"agents,agents_acted,prefix_hits,prefix_misses," +
	"rev_hits,rev_rebuilds,band_refreshes,rev_relaxations,replay_batches," +
	"batch_queries,batch_hits,x_fanout,degraded,crashed,violations,err"

// TestExportsGolden pins the CSV and table bytes of goldenGrid; run with
// -update to rewrite testdata/ after an intended format change.
func TestExportsGolden(t *testing.T) {
	g := goldenGrid(t)
	if len(g.Live) != 7 {
		t.Fatalf("golden grid has %d live scenarios, want 7", len(g.Live))
	}
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	aggs := Summarize(results)
	var csvOut bytes.Buffer
	if err := WriteCSV(&csvOut, aggs); err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(csvOut.String(), "\n"); header != goldenCSVHeader {
		t.Fatalf("csv header\n%s\nwant\n%s", header, goldenCSVHeader)
	}
	// Every counter column must be exercised somewhere in the grid.
	for _, f := range bounds.StatFields {
		if !f.Column {
			continue
		}
		var sum int64
		for _, a := range aggs {
			sum += f.Of(csvStats(a))
		}
		if sum == 0 {
			t.Errorf("counter column %s is zero in every golden row", f.Name)
		}
	}
	for _, f := range []struct {
		file string
		got  []byte
	}{
		{"golden.csv", csvOut.Bytes()},
		{"golden.table", []byte(Table(aggs))},
	} {
		path := filepath.Join("testdata", f.file)
		if *update {
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s differs from the golden file:\n%s\nwant:\n%s", f.file, f.got, want)
		}
	}
}
