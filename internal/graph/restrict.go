package graph

import (
	"fmt"
	"math"
)

// AlwaysVisible is the Restriction.Idx value of vertices that never carry a
// virtual boundary edge (auxiliary bands, speculative query vertices): it
// is below any representable limit.
const AlwaysVisible = int32(math.MinInt32)

// posInf is the "masked vertex" distance sentinel of restricted
// relaxation: no real path weight can exceed it, so an edge into a masked
// vertex never passes the improvement test. It is as far from the
// representable range as NegInf, so adding edge weights cannot wrap.
const posInf = int64(1) << 60

// Restriction masks a graph down to a prefix-closed subgraph and overlays
// caller-private edges, so that one standing graph can serve many
// subscribers whose vertex sets are per-band prefixes of it (bounds.Shared
// amortizes the extended bounds graph across every live agent of a run this
// way: vertex ids are arrival-ordered, so an agent's view is exactly a
// prefix of each process band).
//
// The (Band, Idx, Limit) coordinates are the whole mask: vertex v is
// visible iff Idx[v] <= Limit[Band[v]], so a subscriber's frontier — one
// limit per band — names its visible set, and AlwaysVisible vertices sit
// below every limit. Relaxation never leaves the visible set — invisible
// seeds are dropped and edges into invisible targets are rejected. The
// rejection costs NOTHING per edge: invisible vertices carry the posInf
// distance sentinel, so the ordinary "does this edge improve the target"
// test fails for them and masked and unrestricted queries share one
// relaxation loop, spfaRestricted (the coordinates are consulted only when
// initializing distances and placing the per-dequeue virtual edges; seeds
// are filtered by the sentinel too). Since subscriber frontiers only ever
// grow, the distances a Scratch accumulates for one subscriber remain valid
// warm starts under that subscriber's later (larger) visible sets — the
// subscriber passes the vertices that just became visible as `admitted` so
// their sentinels are dropped.
//
// Two virtual edge families complete the masked subgraph without touching
// the standing edge tables:
//
//   - Overlay[u] lists caller-private out-edges of u, for u < len(Overlay).
//     (bounds.Shared keeps each agent's E” horizon edges here: they depend
//     on which deliveries the agent has seen, so they cannot be standing.)
//   - Every vertex v with Idx[v] == Limit[Band[v]] — the band's boundary
//     under this restriction — gets the edge
//     v --BoundaryWeight--> BoundaryTo[Band[v]] when BoundaryTo is non-nil
//     and the target is >= 0. (The E' boundary edge of an extended bounds
//     graph is a function of the frontier alone, so it lives here rather
//     than being rewritten per agent.) This check runs once per dequeued
//     vertex, so the indirect (band, idx, limit) form is fine here.
//
// The reverse queries read both families backwards: ROverlay mirrors
// Overlay keyed by edge head, and BoundaryFrom names each band's boundary
// vertex.
type Restriction struct {
	Band  []int32
	Idx   []int32
	Limit []int32

	Overlay [][]Edge

	// ROverlay is Overlay transposed, for the reverse (into-destination)
	// queries: it holds {To: u, Weight: w} under head v for every overlay
	// edge u --w--> v. Callers using the reverse queries must keep it in
	// step with Overlay (add together, remove together); forward-only
	// callers leave it nil.
	ROverlay *Mirror

	BoundaryTo     []int32
	BoundaryWeight int

	// BoundaryFrom is the reverse counterpart of the virtual boundary
	// edges: BoundaryFrom[b] names the vertex currently at band b's
	// boundary under this restriction (the unique visible v with
	// Idx[v] == Limit[b]), or -1 when the band has none. Reverse relaxation
	// consults it when dequeuing a band anchor, which requires the anchors
	// to be self-indexed (BoundaryTo[b] == b — the bounds engines guarantee
	// this: aux band vertex ids equal band ids). Forward-only callers leave
	// it nil.
	BoundaryFrom []int32
}

// Mirror is an overlay transposed and keyed by edge head, sized to the
// entries it holds rather than to the graph. Each head with live entries
// owns one slot of a pool; every slot has room for stride entries, the
// most one head may carry at once (bounds.Handle uses the network's
// maximum out-degree: a node heads at most one E” entry per out-channel).
// The per-vertex table holds a 4-byte slot number, 0 for "no entries", so
// reverse relaxation reads one word per dequeued vertex. A head's slot goes
// back to the pool when its last entry is removed and is handed to the next
// head that gains one, so the pool's storage is set by the most heads that
// held entries at once, not by how many ever did. A zero Mirror is not
// ready; use NewMirror.
type Mirror struct {
	slot    []int32 // slot[v]: v's slot number, 0 when v heads no entry
	stride  int
	entries []Edge  // slot s holds entries[s*stride : s*stride+size[s]]
	size    []int32 // live entries per slot; slot 0 is the empty "none"
	free    []int32 // released slot numbers
}

// NewMirror returns an empty mirror whose slots hold stride entries each.
func NewMirror(stride int) *Mirror {
	return &Mirror{stride: stride, entries: make([]Edge, stride), size: make([]int32, 1)}
}

// Add records the transposed entry {To: tail, Weight: w} under head. A head
// without entries takes a released slot if there is one, a new slot
// otherwise. It panics when head's slot is full: the stride bounds the
// entries of one head, a structural invariant of the caller.
func (m *Mirror) Add(head, tail, w int) {
	if head >= len(m.slot) {
		m.slot = append(m.slot, make([]int32, head+1-len(m.slot))...)
	}
	s := m.slot[head]
	if s == 0 {
		if k := len(m.free); k > 0 {
			s = m.free[k-1]
			m.free = m.free[:k-1]
		} else {
			s = int32(len(m.size))
			m.entries = append(m.entries, make([]Edge, m.stride)...)
			m.size = append(m.size, 0)
		}
		m.slot[head] = s
	}
	k := int(m.size[s])
	if k == m.stride {
		panic(fmt.Sprintf("graph: mirror slot of head %d full at %d entries", head, k))
	}
	m.entries[int(s)*m.stride+k] = Edge{To: tail, Weight: w}
	m.size[s]++
}

// Remove swap-deletes one entry {To: tail, Weight: w} under head, releasing
// the head's slot when it was the last, and reports whether it was found.
func (m *Mirror) Remove(head, tail, w int) bool {
	if head < 0 || head >= len(m.slot) || m.slot[head] == 0 {
		return false
	}
	s := m.slot[head]
	base := int(s) * m.stride
	es := m.entries[base : base+int(m.size[s])]
	for i := range es {
		if es[i].To == tail && es[i].Weight == w {
			last := len(es) - 1
			es[i] = es[last]
			m.size[s]--
			if last == 0 {
				m.slot[head] = 0
				m.free = append(m.free, s)
			}
			return true
		}
	}
	return false
}

// EntryCap returns the number of entries the slot pool has storage for:
// its memory, which tracks the most heads that held entries at once.
func (m *Mirror) EntryCap() int { return cap(m.entries) }

// visible reports whether v lies inside the restriction; a nil restriction
// hides nothing.
func (r *Restriction) visible(v int) bool {
	return r == nil || r.Idx[v] <= r.Limit[r.Band[v]]
}

// covers checks that the restriction's coordinates span n vertices.
func (r *Restriction) covers(n int) error {
	if len(r.Band) < n || len(r.Idx) < n {
		return fmt.Errorf("graph: restriction covers %d of %d vertices", min(len(r.Band), len(r.Idx)), n)
	}
	return nil
}

// LongestRestricted is LongestWith confined to the restriction's visible
// subgraph (plus its overlay and virtual boundary edges). Entries for
// invisible vertices hold the masking sentinel and must not be read as
// distances. The returned slice aliases s and stays valid only until s is
// used again.
func (g *Graph) LongestRestricted(s *Scratch, src int, r *Restriction) ([]int64, error) {
	n := len(g.adj)
	if src < 0 || src >= n {
		return nil, fmt.Errorf("graph: source %d outside 0..%d", src, n-1)
	}
	if err := r.covers(n); err != nil {
		return nil, err
	}
	if !r.visible(src) {
		return nil, fmt.Errorf("graph: source %d outside the restriction", src)
	}
	dist := s.start(n, src, r)
	return dist, spfaRestricted(g.adj, s, 1, r)
}

// RelaxRestrictedFrom resumes a prior LongestRestricted/RelaxRestrictedFrom
// run from the same source and the same subscriber, after the graph and the
// subscriber's visible set grew monotonically: adding a vertex or an edge
// never lowers a longest-path distance, so the prior fixpoint is a valid
// warm start. seeds must list the sources of every edge that became
// visible to this subscriber since the prior run (newly standing edges
// inside the frontier, overlay additions, and the moved virtual boundary
// edges); invisible or unreachable seeds are skipped. admitted must list
// every vertex of the prior run's range that has become visible since, so
// its masked-distance sentinel is dropped (vertices beyond the prior range
// are initialized straight off the mask).
//
// The restart costs O(seeds + admitted + vertices added + work done), not
// O(V): it touches no vertex the delta does not reach (see Scratch). A run
// that stops on ErrPositiveCycle leaves the scratch cold, so the next query
// must be a full run.
func (g *Graph) RelaxRestrictedFrom(s *Scratch, seeds, admitted []int, r *Restriction) ([]int64, error) {
	count, err := s.resume("RelaxRestrictedFrom", len(g.adj), seeds, admitted, nil, r)
	if err != nil {
		return nil, err
	}
	return s.dist, spfaRestricted(g.adj, s, count, r)
}

// LongestIntoRestricted is LongestInto confined to the restriction's
// visible subgraph: it computes, for every visible vertex v, the weight of
// the longest path from v INTO dst through visible vertices only, including
// the overlay and virtual boundary edges (consulted through ROverlay and
// BoundaryFrom, which reverse callers must populate). Entries for invisible
// vertices hold the masking sentinel and must not be read as distances. The
// returned slice aliases s and stays valid only until s is used again.
func (g *Graph) LongestIntoRestricted(s *Scratch, dst int, r *Restriction) ([]int64, error) {
	n := len(g.adj)
	if dst < 0 || dst >= n {
		return nil, fmt.Errorf("graph: destination %d outside 0..%d", dst, n-1)
	}
	if err := r.covers(n); err != nil {
		return nil, err
	}
	if !r.visible(dst) {
		return nil, fmt.Errorf("graph: destination %d outside the restriction", dst)
	}
	dist := s.start(n, dst, r)
	return dist, spfaReverseRestricted(g.radj, s, 1, r)
}

// RelaxReverseRestrictedFrom resumes a prior LongestIntoRestricted /
// RelaxReverseRestrictedFrom run toward the same destination and for the
// same subscriber, after the graph and the subscriber's visible set grew
// monotonically. Reverse relaxation propagates head -> tail, so seeds must
// list the HEADS of every edge that became visible since the prior run
// (newly standing edges, overlay additions, and the band anchors whose
// virtual boundary edge moved); invisible or unreachable seeds are skipped.
// admitted lists every vertex of the prior run's range that became visible
// since, so its masked-distance sentinel is dropped.
//
// Edge removal can LOWER a reverse distance, which a max-only warm restart
// would never discover: refresh must list every vertex whose distance
// toward the destination may have decreased since the prior run. Each
// refresh vertex is re-derived in place, before the queue drains: its
// distance becomes the best w + dist[head] over its surviving out-edges
// (standing, overlay and boundary) whose head has a finite distance, or
// unreachable when none has, and every refresh vertex left reachable is
// queued as a seed. No value so set exceeds the vertex's new distance, so
// the queue raises the family to its exact fixpoint: a refresh vertex whose
// derivation routes through other refresh vertices improves when they are
// dequeued (the bounds engines refresh the whole auxiliary band, which
// re-derives through its E”' edges this way; node-vertex reverse distances
// are knowledge weights, which persist). Each finite re-derivation counts
// as one relaxation. refresh must not contain the destination, and refresh
// vertices must be visible.
//
// Like the forward restart it costs O(seeds + admitted + refresh and its
// out-edges + vertices added + work done), never O(V), and
// ErrPositiveCycle leaves the scratch cold.
func (g *Graph) RelaxReverseRestrictedFrom(s *Scratch, seeds, admitted, refresh []int, r *Restriction) ([]int64, error) {
	count, err := s.resume("RelaxReverseRestrictedFrom", len(g.adj), seeds, admitted, refresh, r)
	if err != nil {
		return nil, err
	}
	// resume reset every refresh vertex to unreachable, so a refresh head
	// read here holds either that or a value re-derived earlier in this
	// loop; both are under-approximations, as is every other distance.
	dist := s.dist
	for _, v := range refresh {
		best := NegInf
		for _, e := range g.adj[v] {
			best = throughHead(best, dist[e.To], e.Weight)
		}
		if v < len(r.Overlay) {
			for _, e := range r.Overlay[v] {
				best = throughHead(best, dist[e.To], e.Weight)
			}
		}
		if r.BoundaryTo != nil && r.Idx[v] == r.Limit[r.Band[v]] {
			if h := int(r.BoundaryTo[r.Band[v]]); h >= 0 {
				best = throughHead(best, dist[h], r.BoundaryWeight)
			}
		}
		if best != NegInf {
			dist[v] = best
			s.Relaxations++
		}
		count = s.seed(count, v)
	}
	return dist, spfaReverseRestricted(g.radj, s, count, r)
}

// throughHead is max(best, d + w) when d is a finite distance, best when d
// is unreachable or masked.
func throughHead(best, d int64, w int) int64 {
	if d == NegInf || d == posInf {
		return best
	}
	return max(best, d+int64(w))
}

// start initializes a full run over n vertices from the single seed src:
// every distance is reset off the restriction's mask (r nil: all visible),
// and src is queued at distance zero. It relies on the Scratch invariant
// instead of clearing the queue flags and path lengths.
func (s *Scratch) start(n, src int, r *Restriction) []int64 {
	s.ensure(n)
	dist := s.dist
	for i := range dist {
		if r.visible(i) {
			dist[i] = NegInf
		} else {
			dist[i] = posInf
		}
	}
	dist[src] = 0
	s.seed(0, src)
	s.n = n
	return dist
}

// resume prepares a warm restart over n vertices: it initializes the
// vertices added since the prior run off the mask, drops the sentinels of
// admitted vertices, resets refresh vertices to unreachable and queues the
// usable seeds, returning how many it queued. Every argument is checked
// before anything is written, so an error leaves the scratch as it was.
func (s *Scratch) resume(op string, n int, seeds, admitted, refresh []int, r *Restriction) (int, error) {
	if s.n == 0 {
		return 0, fmt.Errorf("graph: %s without a prior computation", op)
	}
	if s.n > n {
		return 0, fmt.Errorf("graph: %s after shrink: %d vertices, scratch covers %d", op, n, s.n)
	}
	if err := r.covers(n); err != nil {
		return 0, err
	}
	for _, v := range admitted {
		if v < 0 || v >= n || !r.visible(v) {
			return 0, fmt.Errorf("graph: admitted vertex %d invalid", v)
		}
	}
	for _, v := range refresh {
		if v < 0 || v >= n || !r.visible(v) {
			return 0, fmt.Errorf("graph: refresh vertex %d invalid", v)
		}
	}
	for _, v := range seeds {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("graph: seed %d outside 0..%d", v, n-1)
		}
	}
	old := s.n
	s.ensure(n)
	dist := s.dist
	for i := old; i < n; i++ {
		if r.visible(i) {
			dist[i] = NegInf
		} else {
			dist[i] = posInf
		}
	}
	for _, v := range admitted {
		if v < old {
			dist[v] = NegInf
		}
	}
	for _, v := range refresh {
		dist[v] = NegInf
	}
	count := 0
	for _, v := range seeds {
		count = s.seed(count, v)
	}
	s.n = n
	return count, nil
}

// seed queues v as the count-th seed of a run unless it is already queued,
// unreachable or masked, and returns the new count. A masked vertex holds
// the posInf sentinel, so its distance alone tells. A seed is the one kind
// of dequeued vertex no relaxation of this run has written a path length
// for, so its count restarts at zero here.
func (s *Scratch) seed(count, v int) int {
	if d := s.dist[v]; s.inQueue[v] || d == NegInf || d == posInf {
		return count
	}
	s.queue[count] = v
	s.inQueue[v] = true
	s.pathLen[v] = 0
	return count + 1
}

// positiveCycle ends a run that found a positive cycle. It books the
// relaxations done, clears the queue flags of the count ring entries from
// head on (keeping the Scratch invariant) and leaves the scratch cold, so
// no warm restart resumes from the run's partial distances.
func (s *Scratch) positiveCycle(relaxed int64, head, count int) error {
	s.Relaxations += relaxed
	for ; count > 0; count-- {
		s.inQueue[s.queue[head]] = false
		if head++; head == len(s.queue) {
			head = 0
		}
	}
	s.n = 0
	return ErrPositiveCycle
}

// spfaRestricted drains the ring queue holding count seeded vertices,
// relaxing the visible subgraph of r — or the whole graph when r is nil
// (Longest, LongestWith and LongestInto run through it that way). The queue
// holds at most one entry per vertex (inQueue guards every push), so the
// ring never overtakes its head; dequeues are O(1) index moves and the
// backing array is reused across queries instead of leaking capacity the
// way a queue[1:] re-slice does.
//
// Positive cycles are detected exactly, by path edge count: every
// relaxation records that the improving path to e.To is one edge longer
// than the one to u, and a strictly-improving path of n edges must revisit
// a vertex, around a cycle that raised its distance — a positive cycle.
// Conversely, when no positive cycle is reachable every improving path is
// simple (revisiting would imply a distance-raising cycle), so lengths stay
// below n and legal graphs are never misreported, no matter how many times
// a vertex is re-relaxed.
//
// Under a restriction the overlay contributes extra out-edges and
// band-boundary vertices relax their virtual boundary edge, both once per
// dequeued vertex. Standing edges need no mask work at all — masked targets
// hold the posInf sentinel, so the improvement test rejects them — and the
// queue only ever holds visible vertices (seeds are filtered, masked
// vertices are never improved). The nil check likewise runs once per
// dequeue, never per edge. The relaxation body is spelled out three times
// rather than closed over — this loop is the hot path of every knowledge
// query, and a closure call per edge costs ~15% of the whole query.
func spfaRestricted(adj [][]Edge, s *Scratch, count int, r *Restriction) error {
	n := len(adj)
	// Every caller has sized the buffers to n. Reslicing tells the compiler
	// so: the four buffers then share one length for their bounds checks,
	// which frees the registers the restriction's state needs and keeps
	// unrestricted queries as fast as a dedicated loop.
	dist, inQueue, pathLen, queue := s.dist[:n], s.inQueue[:n], s.pathLen[:n], s.queue[:n]
	var band, idx, limit []int32
	if r != nil {
		band, idx, limit = r.Band, r.Idx, r.Limit
	}
	head := 0
	var relaxed int64
	for count > 0 {
		u := queue[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inQueue[u] = false
		du := dist[u]
		for _, e := range adj[u] {
			if nd := du + int64(e.Weight); nd > dist[e.To] {
				dist[e.To] = nd
				relaxed++
				pathLen[e.To] = pathLen[u] + 1
				if int(pathLen[e.To]) >= n {
					return s.positiveCycle(relaxed, head, count)
				}
				if !inQueue[e.To] {
					tail := head + count
					if tail >= n {
						tail -= n
					}
					queue[tail] = e.To
					count++
					inQueue[e.To] = true
				}
			}
		}
		if r == nil {
			continue
		}
		if u < len(r.Overlay) {
			for _, e := range r.Overlay[u] {
				if nd := du + int64(e.Weight); nd > dist[e.To] {
					dist[e.To] = nd
					relaxed++
					pathLen[e.To] = pathLen[u] + 1
					if int(pathLen[e.To]) >= n {
						return s.positiveCycle(relaxed, head, count)
					}
					if !inQueue[e.To] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = e.To
						count++
						inQueue[e.To] = true
					}
				}
			}
		}
		if r.BoundaryTo != nil && idx[u] == limit[band[u]] {
			// Boundary targets are the restriction's own always-visible band
			// anchors.
			if to := int(r.BoundaryTo[band[u]]); to >= 0 {
				if nd := du + int64(r.BoundaryWeight); nd > dist[to] {
					dist[to] = nd
					relaxed++
					pathLen[to] = pathLen[u] + 1
					if int(pathLen[to]) >= n {
						return s.positiveCycle(relaxed, head, count)
					}
					if !inQueue[to] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = to
						count++
						inQueue[to] = true
					}
				}
			}
		}
	}
	s.Relaxations += relaxed
	return nil
}

// spfaReverseRestricted is spfaRestricted over the transposed graph:
// dequeuing a vertex relaxes its IN-edges (improving the distances of edge
// tails toward the fixed destination), the reverse overlay contributes the
// caller-private in-edges (one slot-table read per dequeue), and dequeuing
// a band anchor relaxes the band's virtual boundary edge backwards onto the
// vertex BoundaryFrom names. The masking works unchanged: invisible tails
// hold the posInf sentinel, so the improvement test rejects them for free.
// The relaxation body is spelled out three times for the same reason as in
// spfaRestricted.
func spfaReverseRestricted(radj [][]Edge, s *Scratch, count int, r *Restriction) error {
	n := len(radj)
	dist, inQueue, pathLen, queue := s.dist, s.inQueue, s.pathLen, s.queue
	var slot, size []int32
	var entries []Edge
	var stride int
	if m := r.ROverlay; m != nil {
		slot, size, entries, stride = m.slot, m.size, m.entries, m.stride
	}
	head := 0
	var relaxed int64
	for count > 0 {
		u := queue[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inQueue[u] = false
		du := dist[u]
		for _, e := range radj[u] {
			if nd := du + int64(e.Weight); nd > dist[e.To] {
				dist[e.To] = nd
				relaxed++
				pathLen[e.To] = pathLen[u] + 1
				if int(pathLen[e.To]) >= n {
					return s.positiveCycle(relaxed, head, count)
				}
				if !inQueue[e.To] {
					tail := head + count
					if tail >= n {
						tail -= n
					}
					queue[tail] = e.To
					count++
					inQueue[e.To] = true
				}
			}
		}
		if sl := mirrorSlot(slot, u); sl != 0 {
			base := sl * stride
			for _, e := range entries[base : base+int(size[sl])] {
				if nd := du + int64(e.Weight); nd > dist[e.To] {
					dist[e.To] = nd
					relaxed++
					pathLen[e.To] = pathLen[u] + 1
					if int(pathLen[e.To]) >= n {
						return s.positiveCycle(relaxed, head, count)
					}
					if !inQueue[e.To] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = e.To
						count++
						inQueue[e.To] = true
					}
				}
			}
		}
		if u < len(r.BoundaryFrom) && r.BoundaryTo[u] == int32(u) {
			// u is a band anchor: the band's boundary vertex carries the
			// virtual edge INTO u, so relax it backwards.
			if from := int(r.BoundaryFrom[u]); from >= 0 {
				if nd := du + int64(r.BoundaryWeight); nd > dist[from] {
					dist[from] = nd
					relaxed++
					pathLen[from] = pathLen[u] + 1
					if int(pathLen[from]) >= n {
						return s.positiveCycle(relaxed, head, count)
					}
					if !inQueue[from] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = from
						count++
						inQueue[from] = true
					}
				}
			}
		}
	}
	s.Relaxations += relaxed
	return nil
}

// mirrorSlot is slot[u], or 0 when the slot table does not reach u.
func mirrorSlot(slot []int32, u int) int {
	if u < len(slot) {
		return int(slot[u])
	}
	return 0
}
