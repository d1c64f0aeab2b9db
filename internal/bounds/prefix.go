package bounds

import (
	"sync"
	"sync/atomic"

	"github.com/clockless/zigzag/internal/graph"
)

// DefaultPrefixCapacity is the number of frozen standing prefixes a
// PrefixEngine retains before evicting least-recently-used entries. Sweeps
// touch a handful of distinct runs per network (one per deterministic policy
// class times a few scenario variants), so a small cache already captures
// every cross-seed hit.
const DefaultPrefixCapacity = 32

// EngineStats is a point-in-time snapshot of a NetworkEngine's cheap work
// counters. All counters are cumulative since the engine was built; they are
// maintained with atomic adds on paths that already pay a lock or a graph
// relaxation, so keeping them costs nothing measurable.
type EngineStats struct {
	// Runs counts the Shared engines stamped out (NewRun and NewRunAt both
	// count; prefix hits and misses are disjoint subsets of it).
	Runs int64
	// PrefixHits / PrefixMisses count NewRunAt calls that found / did not
	// find a frozen standing prefix under the requested fingerprint.
	// NewRunAt(0) counts as neither (no fingerprint, nothing to look up).
	PrefixHits   int64
	PrefixMisses int64
	// PrefixEvictions counts frozen prefixes dropped by the LRU cache.
	PrefixEvictions int64
	// CloneBytes approximates the bytes copied stamping standing graphs
	// (adjacency header arrays of every Clone, per graph.CloneBytes).
	CloneBytes int64
	// Relaxations counts successful SPFA relaxations across every knowledge
	// query answered through the engine's handles — the work metric the
	// standing tiers exist to amortize.
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
	// subscribed to this engine (live.Replay with Config.Engine set).
	ReplayBatches int64
	// BatchQueries / BatchHits count the batched knowledge-query plane:
	// answers served through handle KnowsAt grids, and the subset
	// answered from an already-computed distance array (no SPFA of their
	// own). XFanout counts live executions SAVED by x-axis fanout — sweep
	// cells whose per-x rows were derived from another cell's single
	// execution (NoteXFanout).
	BatchQueries int64
	BatchHits    int64
	XFanout      int64
	// ScratchLeased is a gauge, not a counter: query scratches currently
	// leased by handles and not yet returned by Handle.Release. It reads
	// zero once every handle of the engine has been released.
	ScratchLeased int64
}

// engineStats is the mutable counter block behind EngineStats.
type engineStats struct {
	runs            atomic.Int64
	prefixHits      atomic.Int64
	prefixMisses    atomic.Int64
	prefixEvictions atomic.Int64
	cloneBytes      atomic.Int64
	relaxations     atomic.Int64
	revHits         atomic.Int64
	revRebuilds     atomic.Int64
	bandRefreshes   atomic.Int64
	revRelaxations  atomic.Int64
	replayBatches   atomic.Int64
	batchQueries    atomic.Int64
	batchHits       atomic.Int64
	xFanout         atomic.Int64
	scratchLeased   atomic.Int64
}

func (st *engineStats) snapshot() EngineStats {
	return EngineStats{
		Runs:            st.runs.Load(),
		PrefixHits:      st.prefixHits.Load(),
		PrefixMisses:    st.prefixMisses.Load(),
		PrefixEvictions: st.prefixEvictions.Load(),
		CloneBytes:      st.cloneBytes.Load(),
		Relaxations:     st.relaxations.Load(),
		RevHits:         st.revHits.Load(),
		RevRebuilds:     st.revRebuilds.Load(),
		BandRefreshes:   st.bandRefreshes.Load(),
		RevRelaxations:  st.revRelaxations.Load(),
		ReplayBatches:   st.replayBatches.Load(),
		BatchQueries:    st.batchQueries.Load(),
		BatchHits:       st.batchHits.Load(),
		XFanout:         st.xFanout.Load(),
		ScratchLeased:   st.scratchLeased.Load(),
	}
}

// frozenPrefix is an immutable snapshot of a Shared engine's standing state:
// the standing graph (aux band, node vertices, successor and delivery edges,
// E”' channel edges), the union frontier, the vertex and restriction
// coordinate tables, and the delivery-dedup state. Per the graph.Clone
// freeze-and-extend contract the graph and the coordinate tables alias the
// donor's backing arrays with zero spare capacity: freezing costs O(n)
// regardless of how many deliveries the run absorbed, the donor may keep
// growing (it only ever appends past the frozen lengths), and every Shared
// later stamped from the snapshot copies on growth instead of writing into
// shared memory.
type frozenPrefix struct {
	g        *graph.Graph
	members  []int
	vertexOf [][]int32
	band     []int32
	idx      []int32
	// delivered and wide are deep copies: absorbDelivery mutates them in
	// place, and a stamped run that absorbs material beyond the frozen
	// prefix (distinct agent sets over an identical run) must not poison
	// its siblings.
	delivered []uint64
	wide      map[int64]struct{}
}

// PrefixEngine is the content-addressed tier between NetworkEngine and
// Shared in the knowledge engine hierarchy
//
//	NetworkEngine (per network topology)
//	  └── PrefixEngine (frozen standing prefixes, keyed by run content)
//	        └── Shared  (per run)
//	              └── Handle (per agent)
//
// It caches frozen standing-prefix snapshots keyed by run fingerprint
// (run.Run.Fingerprint: network content + horizon + the timed event log).
// Identical runs — every seed of a deterministic policy, every policy pair
// that happens to produce the same schedule, re-plays of a recorded run —
// share one fingerprint, so the second and later runs stamp their standing
// graphs from the frozen snapshot (NetworkEngine.NewRunAt) instead of
// re-absorbing every timeline and delivery through handle syncs.
//
// Entries are retained with least-recently-used eviction up to a fixed
// capacity (SetCapacity; DefaultPrefixCapacity initially). The engine is
// safe for concurrent use.
type PrefixEngine struct {
	mu       sync.Mutex
	stats    *engineStats
	capacity int
	entries  map[uint64]*prefixEntry
	// head is the most recently used entry, tail the least.
	head, tail *prefixEntry
}

type prefixEntry struct {
	fp         uint64
	fz         *frozenPrefix
	prev, next *prefixEntry
}

func newPrefixEngine(stats *engineStats) *PrefixEngine {
	return &PrefixEngine{
		stats:    stats,
		capacity: DefaultPrefixCapacity,
		entries:  make(map[uint64]*prefixEntry),
	}
}

// Len returns the number of frozen prefixes currently cached.
func (pe *PrefixEngine) Len() int {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return len(pe.entries)
}

// SetCapacity bounds the cache at capacity entries, evicting
// least-recently-used prefixes immediately if it already holds more.
// Capacities below 1 are treated as 1.
func (pe *PrefixEngine) SetCapacity(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.capacity = capacity
	pe.evictOver()
}

// Contains reports whether a prefix is cached under fp, without touching
// recency or the hit/miss counters.
func (pe *PrefixEngine) Contains(fp uint64) bool {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	_, ok := pe.entries[fp]
	return ok
}

// lookup returns the frozen prefix cached under fp, marking it most
// recently used, and counts the hit or miss.
func (pe *PrefixEngine) lookup(fp uint64) (*frozenPrefix, bool) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	en, ok := pe.entries[fp]
	if !ok {
		pe.stats.prefixMisses.Add(1)
		return nil, false
	}
	pe.stats.prefixHits.Add(1)
	pe.unlink(en)
	pe.pushFront(en)
	return en.fz, true
}

// insert caches fz under fp as the most recently used entry, evicting from
// the LRU end if the cache is over capacity. A prefix already cached under
// fp is kept (first writer wins: both snapshots freeze the same run).
func (pe *PrefixEngine) insert(fp uint64, fz *frozenPrefix) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if en, ok := pe.entries[fp]; ok {
		pe.unlink(en)
		pe.pushFront(en)
		return
	}
	en := &prefixEntry{fp: fp, fz: fz}
	pe.entries[fp] = en
	pe.pushFront(en)
	pe.evictOver()
}

// evictOver drops LRU entries until the cache fits. Callers hold pe.mu.
func (pe *PrefixEngine) evictOver() {
	for len(pe.entries) > pe.capacity {
		victim := pe.tail
		pe.unlink(victim)
		delete(pe.entries, victim.fp)
		pe.stats.prefixEvictions.Add(1)
	}
}

func (pe *PrefixEngine) pushFront(en *prefixEntry) {
	en.prev = nil
	en.next = pe.head
	if pe.head != nil {
		pe.head.prev = en
	}
	pe.head = en
	if pe.tail == nil {
		pe.tail = en
	}
}

func (pe *PrefixEngine) unlink(en *prefixEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else if pe.head == en {
		pe.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else if pe.tail == en {
		pe.tail = en.prev
	}
	en.prev, en.next = nil, nil
}
