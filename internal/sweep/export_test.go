package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
)

// TestWriteFormats checks the CSV and JSON renderings of a small sweep —
// sim cells plus the golden live grid: schema-correct, deterministic, and
// carrying the same aggregates as the table, counters included.
func TestWriteFormats(t *testing.T) {
	g := fullGrid(0)
	g.Live = goldenGrid(t).Live
	g.Seeds = []int64{1, 2}
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	aggs := Summarize(results)

	var buf bytes.Buffer
	if err := Write(&buf, "csv", aggs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("csv output does not parse: %v", err)
	}
	if len(rows) != len(aggs)+1 {
		t.Fatalf("csv rows = %d, want %d aggregates + header", len(rows), len(aggs))
	}
	if got := len(rows[0]); got != len(csvHeader) {
		t.Fatalf("csv header has %d columns, want %d", got, len(csvHeader))
	}
	for i, a := range aggs {
		mode := a.Mode
		if mode == "" {
			mode = ModeSim
		}
		if rows[i+1][0] != a.Scenario || rows[i+1][1] != mode || rows[i+1][2] != a.Policy {
			t.Errorf("csv row %d is (%s,%s,%s), want (%s,%s,%s)",
				i, rows[i+1][0], rows[i+1][1], rows[i+1][2], a.Scenario, mode, a.Policy)
		}
	}

	buf.Reset()
	if err := Write(&buf, "json", aggs); err != nil {
		t.Fatal(err)
	}
	var decoded []Aggregate
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if len(decoded) != len(aggs) {
		t.Fatalf("json aggregates = %d, want %d", len(decoded), len(aggs))
	}
	counted := false
	for i := range aggs {
		if decoded[i].Scenario != aggs[i].Scenario || decoded[i].Runs != aggs[i].Runs ||
			decoded[i].Stats != aggs[i].Stats || decoded[i].XFanout != aggs[i].XFanout {
			t.Errorf("json aggregate %d round-trips to %+v, want %+v", i, decoded[i], aggs[i])
		}
		counted = counted || aggs[i].Stats != (bounds.EngineStats{})
	}
	if !counted {
		t.Error("no aggregate carries counters: the Stats round trip is vacuous")
	}

	buf.Reset()
	if err := Write(&buf, "table", aggs); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != Table(aggs) {
		t.Error("table format does not match Table()")
	}

	if err := Write(&buf, "yaml", aggs); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRegistryIncludesRandomFamily pins the generated random-topology
// scenarios as seen by sweeps: present and producing legal runs.
func TestRegistryIncludesRandomFamily(t *testing.T) {
	g := fullGrid(0)
	seen := 0
	for _, sc := range g.Scenarios {
		if strings.HasPrefix(sc.Name, "random-") {
			seen++
			r, err := sc.Simulate(nil)
			if err != nil {
				t.Fatalf("%s does not simulate: %v", sc.Name, err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s produces illegal run: %v", sc.Name, err)
			}
		}
	}
	if seen == 0 {
		t.Fatal("registry has no random-topology scenarios")
	}
}
