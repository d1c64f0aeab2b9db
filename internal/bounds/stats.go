package bounds

import "unsafe"

// EngineStats is the one counter record of the knowledge engines: a
// Handle's own counters (Handle.Stats), a NetworkEngine's cumulative totals
// (NetworkEngine.Stats) and every sum built from them — sweep cells and
// aggregates, the sweep-wide engine report, the CLI footer. StatFields
// lists its fields; adding a counter is one field here plus one entry
// there.
type EngineStats struct {
	// Runs counts the Shared engines stamped out (NewRun and NewRunAt both
	// count).
	Runs int64
	// PrefixHits / PrefixMisses count cells served by an earlier identical
	// run / that built their standing graph: NewRunAt calls that found /
	// did not find a frozen prefix under the requested fingerprint (0
	// counts as neither), plus a hit per sweep row copied from its
	// deterministic first seed (which stamps no run).
	PrefixHits   int64
	PrefixMisses int64
	// PrefixEvictions counts frozen prefixes dropped by the LRU cache.
	PrefixEvictions int64
	// CloneBytes approximates the bytes copied stamping standing graphs
	// (adjacency header arrays of every Clone, per graph.CloneBytes).
	CloneBytes int64
	// Relaxations counts successful SPFA relaxations spent in forward
	// knowledge queries — the work metric the standing tiers exist to
	// amortize.
	Relaxations int64
	// RevHits / RevRebuilds count reverse-cache (fixed-target, Early-kind)
	// queries served by a warm reverse restart versus a full reverse SPFA
	// over the restricted standing graph.
	RevHits     int64
	RevRebuilds int64
	// BandRefreshes counts auxiliary-band refreshes: reverse relaxations
	// that had to re-derive the psi band because an E'' retirement since the
	// last reverse run may have lowered its distances.
	BandRefreshes int64
	// RevRelaxations counts successful SPFA relaxations spent in reverse
	// (into-target) queries, disjoint from Relaxations.
	RevRelaxations int64
	// ReplayBatches counts the receive batches driven by live executions
	// subscribed to the engine (live.Replay with Config.Engine set).
	ReplayBatches int64
	// BatchQueries / BatchHits count the thresholds of grids (two or more
	// thresholds) answered through Handle.KnowsAt, and the subset answered
	// from an already-computed weight (no SPFA of their own).
	BatchQueries int64
	BatchHits    int64
	// XFanout counts live executions saved by x-axis fanout: sweep cells
	// whose per-x rows were derived from another cell's single execution.
	XFanout int64
	// ScratchLeased is a gauge, not a counter: query scratches currently
	// leased by handles and not yet returned by Handle.Release. It reads
	// zero once every handle of the engine has been released.
	ScratchLeased int64
}

// StatField is one entry of StatFields: an EngineStats field and its
// snake_case name.
type StatField struct {
	Name string
	// Column marks the counters the sweep exports as per-aggregate CSV
	// columns.
	Column bool
	off    uintptr
}

// Of returns the field's value in st.
func (f StatField) Of(st EngineStats) int64 { return *st.at(f) }

// at addresses field f of st. The table stores field offsets rather than
// accessor closures so that summing a record on the stack never moves it to
// the heap — Add runs once per knowledge query.
func (st *EngineStats) at(f StatField) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(st), f.off))
}

// StatFields lists every EngineStats field in declaration order. Add, the
// sweep's CSV counter columns and the zigzag-sim engine footer all iterate
// it.
var StatFields = []StatField{
	{Name: "runs_stamped", off: unsafe.Offsetof(EngineStats{}.Runs)},
	{Name: "prefix_hits", Column: true, off: unsafe.Offsetof(EngineStats{}.PrefixHits)},
	{Name: "prefix_misses", Column: true, off: unsafe.Offsetof(EngineStats{}.PrefixMisses)},
	{Name: "prefix_evictions", off: unsafe.Offsetof(EngineStats{}.PrefixEvictions)},
	{Name: "clone_bytes", off: unsafe.Offsetof(EngineStats{}.CloneBytes)},
	{Name: "relaxations", off: unsafe.Offsetof(EngineStats{}.Relaxations)},
	{Name: "rev_hits", Column: true, off: unsafe.Offsetof(EngineStats{}.RevHits)},
	{Name: "rev_rebuilds", Column: true, off: unsafe.Offsetof(EngineStats{}.RevRebuilds)},
	{Name: "band_refreshes", Column: true, off: unsafe.Offsetof(EngineStats{}.BandRefreshes)},
	{Name: "rev_relaxations", Column: true, off: unsafe.Offsetof(EngineStats{}.RevRelaxations)},
	{Name: "replay_batches", Column: true, off: unsafe.Offsetof(EngineStats{}.ReplayBatches)},
	{Name: "batch_queries", Column: true, off: unsafe.Offsetof(EngineStats{}.BatchQueries)},
	{Name: "batch_hits", Column: true, off: unsafe.Offsetof(EngineStats{}.BatchHits)},
	{Name: "x_fanout", Column: true, off: unsafe.Offsetof(EngineStats{}.XFanout)},
	{Name: "scratch_leased", off: unsafe.Offsetof(EngineStats{}.ScratchLeased)},
}

// Add accumulates other into st, field by field.
func (st *EngineStats) Add(other EngineStats) {
	for _, f := range StatFields {
		*st.at(f) += *other.at(f)
	}
}
