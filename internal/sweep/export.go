package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/clockless/zigzag/internal/bounds"
)

// Export formats for sweep aggregates, used by `zigzag-sim -sweep -format`.
// The text table (Table) is for eyes; CSV and JSON are for feeding figure
// scripts and downstream analysis.

// csvHeader is the column schema of WriteCSV, one row per
// (scenario, policy, mode) aggregate: csvHead, then one column per
// bounds.StatFields entry marked Column, then csvTail. Gap columns are empty
// when no cell of the group acted; the agent and counter columns are zero
// for sim rows. The x-fanout column reports Aggregate.XFanout, the rows
// answered by batched executions (see csvStats).
var csvHeader = func() []string {
	h := append([]string(nil), csvHead...)
	for _, f := range bounds.StatFields {
		if f.Column {
			h = append(h, f.Name)
		}
	}
	return append(h, csvTail...)
}()

var (
	csvHead = []string{
		"scenario", "mode", "policy", "runs", "errors",
		"nodes_mean", "nodes_min", "nodes_p50", "nodes_p90", "nodes_max",
		"deliveries_mean", "deliveries_min", "deliveries_p50", "deliveries_p90", "deliveries_max",
		"task_runs", "acted",
		"gap_mean", "gap_min", "gap_p50", "gap_p90", "gap_max", "gap_stddev",
		"agents", "agents_acted",
	}
	csvTail = []string{"degraded", "crashed", "violations", "err"}
)

// WriteCSV renders aggregates as CSV in the given order, one row per
// (scenario, policy, mode) aggregate, with a header row.
func WriteCSV(w io.Writer, aggs []Aggregate) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, a := range aggs {
		mode := a.Mode
		if mode == "" {
			mode = ModeSim
		}
		row := []string{
			a.Scenario, mode, a.Policy, strconv.Itoa(a.Runs), strconv.Itoa(a.Errors),
			f(a.Nodes.Mean), f(a.Nodes.Min), f(a.Nodes.P50), f(a.Nodes.P90), f(a.Nodes.Max),
			f(a.Deliveries.Mean), f(a.Deliveries.Min), f(a.Deliveries.P50), f(a.Deliveries.P90), f(a.Deliveries.Max),
			strconv.Itoa(a.TaskRuns), strconv.Itoa(a.Acted),
		}
		if a.Acted > 0 {
			row = append(row, f(a.Gap.Mean), f(a.Gap.Min), f(a.Gap.P50), f(a.Gap.P90), f(a.Gap.Max), f(a.Gap.Stddev))
		} else {
			row = append(row, "", "", "", "", "", "")
		}
		row = append(row, strconv.Itoa(a.AgentRuns), strconv.Itoa(a.AgentsActed))
		st := csvStats(a)
		for _, sf := range bounds.StatFields {
			if sf.Column {
				row = append(row, strconv.FormatInt(sf.Of(st), 10))
			}
		}
		row = append(row, strconv.Itoa(a.Degraded), strconv.Itoa(a.Crashed), strconv.Itoa(a.Violations), a.FirstErr)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvStats is the record behind an aggregate's CSV counter columns: its
// Stats, with XFanout set to the rows answered by the group's batched
// executions rather than the executions saved, which only the engine report
// counts.
func csvStats(a Aggregate) bounds.EngineStats {
	st := a.Stats
	st.XFanout = int64(a.XFanout)
	return st
}

// WriteJSON renders aggregates as an indented JSON array in the given order.
func WriteJSON(w io.Writer, aggs []Aggregate) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(aggs)
}

// ErrBadFormat reports an output format Write does not understand.
var ErrBadFormat = fmt.Errorf("sweep: unknown output format (want table, csv or json)")

// ValidFormat reports whether Write understands the named format, so
// front ends can fail fast before running a grid. The empty string means
// the default ("table").
func ValidFormat(format string) bool {
	switch format {
	case "", "table", "csv", "json":
		return true
	}
	return false
}

// Write renders aggregates in the named format: "table" (the aligned text
// table), "csv" or "json".
func Write(w io.Writer, format string, aggs []Aggregate) error {
	switch format {
	case "", "table":
		_, err := io.WriteString(w, Table(aggs))
		return err
	case "csv":
		return WriteCSV(w, aggs)
	case "json":
		return WriteJSON(w, aggs)
	default:
		return fmt.Errorf("%w: %q", ErrBadFormat, format)
	}
}
