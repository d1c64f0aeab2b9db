package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Export formats for sweep aggregates, used by `zigzag-sim -sweep -format`.
// The text table (Table) is for eyes; CSV and JSON are for feeding figure
// scripts and downstream analysis.

// csvHeader is the column schema of WriteCSV, one row per
// (scenario, policy, mode) aggregate. Gap columns are empty when no cell of
// the group acted; the agent columns are zero for sim rows.
var csvHeader = []string{
	"scenario", "mode", "policy", "runs", "errors",
	"nodes_mean", "nodes_min", "nodes_p50", "nodes_p90", "nodes_max",
	"deliveries_mean", "deliveries_min", "deliveries_p50", "deliveries_p90", "deliveries_max",
	"task_runs", "acted",
	"gap_mean", "gap_min", "gap_p50", "gap_p90", "gap_max", "gap_stddev",
	"agents", "agents_acted",
	"prefix_hits", "prefix_misses",
	"rev_hits", "rev_rebuilds", "band_refreshes", "rev_relaxations",
	"replay_batches",
	"batch_queries", "batch_hits", "x_fanout",
	"degraded", "crashed", "violations", "err",
}

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
			"", "", "", "", "", "",
			strconv.Itoa(a.AgentRuns), strconv.Itoa(a.AgentsActed),
			strconv.Itoa(a.PrefixHits), strconv.Itoa(a.PrefixMisses),
			strconv.FormatInt(a.Rev.RevHits, 10), strconv.FormatInt(a.Rev.RevRebuilds, 10),
			strconv.FormatInt(a.Rev.BandRefreshes, 10), strconv.FormatInt(a.Rev.RevRelaxations, 10),
			strconv.Itoa(a.ReplayBatches),
			strconv.FormatInt(a.Rev.BatchQueries, 10), strconv.FormatInt(a.Rev.BatchHits, 10),
			strconv.Itoa(a.XFanout),
			strconv.Itoa(a.Degraded), strconv.Itoa(a.Crashed), strconv.Itoa(a.Violations), a.FirstErr,
		}
		if a.Acted > 0 {
			row[17] = f(a.Gap.Mean)
			row[18] = f(a.Gap.Min)
			row[19] = f(a.Gap.P50)
			row[20] = f(a.Gap.P90)
			row[21] = f(a.Gap.Max)
			row[22] = f(a.Gap.Stddev)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
