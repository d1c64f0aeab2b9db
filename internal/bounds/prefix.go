package bounds

import (
	"sync"

	"github.com/clockless/zigzag/internal/graph"
)

// DefaultPrefixCapacity is the number of frozen standing prefixes a
// PrefixEngine retains before evicting least-recently-used entries. Sweeps
// touch a handful of distinct runs per network (one per deterministic policy
// class times a few scenario variants), so a small cache already captures
// every cross-seed hit.
const DefaultPrefixCapacity = 32

// frozenPrefix is an immutable snapshot of a Shared engine's standing state:
// the standing graph (aux band, node vertices, successor and delivery edges,
// E”' channel edges), the union frontier, and the vertex and restriction
// coordinate tables. Per the graph.Clone freeze-and-extend contract the
// graph and the coordinate tables alias the donor's backing arrays with zero
// spare capacity: freezing costs O(n) regardless of how many deliveries the
// run absorbed, the donor may keep growing (it only ever appends past the
// frozen lengths), and every Shared later stamped from the snapshot copies
// on growth instead of writing into shared memory.
type frozenPrefix struct {
	g        *graph.Graph
	members  []int
	vertexOf [][]int32
	band     []int32
	idx      []int32
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
	eng      *NetworkEngine
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

func newPrefixEngine(eng *NetworkEngine) *PrefixEngine {
	return &PrefixEngine{
		eng:      eng,
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
		pe.eng.Note(EngineStats{PrefixMisses: 1})
		return nil, false
	}
	pe.eng.Note(EngineStats{PrefixHits: 1})
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
		pe.eng.Note(EngineStats{PrefixEvictions: 1})
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
