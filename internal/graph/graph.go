// Package graph provides the weighted-digraph machinery behind the bounds
// graphs of the paper: longest-path computation with positive-cycle
// detection. In a bounds graph an edge u --w--> v encodes the constraint
// time(v) >= time(u) + w, so the longest path from u to v is the tightest
// provable lower bound on time(v) - time(u); a positive cycle would assert
// that a node occurs strictly after itself, which is absurd, so its
// detection signals an inconsistent (illegal) run.
package graph

import (
	"errors"
	"fmt"
)

// NegInf is the "no path" distance sentinel. It is far enough from the
// representable range that adding edge weights to it cannot wrap.
const NegInf = int64(-1) << 60

// ErrPositiveCycle reports that the graph contains a cycle of positive
// weight reachable in the queried direction, i.e. the constraint system is
// unsatisfiable.
var ErrPositiveCycle = errors.New("graph: positive-weight cycle")

// Edge is a directed weighted edge.
type Edge struct {
	To     int
	Weight int
}

// Graph is a mutable directed graph over vertices 0..n-1 with integer edge
// weights. It is not safe for concurrent mutation.
type Graph struct {
	adj  [][]Edge
	radj [][]Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n), radj: make([][]Edge, n)}
}

// NewWithDegrees returns an empty graph on len(out) == len(in) vertices whose
// per-vertex adjacency slices are carved, with exact capacities, out of two
// shared backing arrays sized by the given out-/in-degree counts. Callers
// that can count edges up front (the bounds-graph constructions do) then add
// every edge without a single adjacency reallocation: the whole graph costs
// O(1) allocations instead of O(V) append churn. AddEdge beyond the declared
// degree of a vertex — and AddVertex — still work; they simply fall back to
// ordinary append growth.
func NewWithDegrees(out, in []int32) *Graph {
	if len(out) != len(in) {
		panic(fmt.Sprintf("graph: degree tables disagree: %d vs %d vertices", len(out), len(in)))
	}
	n := len(out)
	g := &Graph{adj: make([][]Edge, n), radj: make([][]Edge, n)}
	var totalOut, totalIn int32
	for i := 0; i < n; i++ {
		totalOut += out[i]
		totalIn += in[i]
	}
	outBacking := make([]Edge, totalOut)
	inBacking := make([]Edge, totalIn)
	var oOff, iOff int32
	for i := 0; i < n; i++ {
		g.adj[i] = outBacking[oOff : oOff : oOff+out[i]]
		g.radj[i] = inBacking[iOff : iOff : iOff+in[i]]
		oOff += out[i]
		iOff += in[i]
	}
	return g
}

// Clone returns a graph with this graph's vertices and edges whose
// per-vertex adjacency slices alias the original's backing arrays with zero
// spare capacity: cloning costs O(1) allocations (the struct and the two
// header arrays) regardless of edge count, and any append in the clone
// (AddVertex, AddEdge) copies on growth instead of writing into shared
// memory. The contract mirrors three-index slicing: a clone may freely add
// vertices and edges, and remove edges it added itself, but removing an edge
// that was present at clone time would mutate the shared backing and corrupt
// the original and every sibling clone.
//
// The contract is freeze-and-extend and composes along chains: a clone that
// has itself been extended may be cloned again, freezing ITS state as the
// new baseline, and so on (prototype -> run graph -> frozen prefix ->
// stamped run ...). Two aliasing rules make every link of such a chain
// safe, including concurrently:
//
//   - A donor that keeps growing after being cloned never invalidates the
//     clone. In-place appends write only at indices at or beyond the
//     clone-time lengths — addresses no reader of the frozen prefix ever
//     touches — and appends beyond capacity relocate the donor's slice
//     entirely. Each side reads and writes a disjoint region of any shared
//     backing, so donor and clone need no synchronization between them.
//   - A donor may remove edges it added after the most recent freeze (its
//     own speculative material): swap-deletion moves entries only within
//     the post-freeze tail, indices the frozen prefix capped away. Edges
//     that predate the freeze are immutable forever.
//
// Restriction coordinates kept alongside a graph (band/idx tables, see
// Restriction) follow the same discipline: they are append-only, so a
// frozen prefix can alias them with zero spare capacity and both sides stay
// valid across any number of re-stampings.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj)), radj: make([][]Edge, len(g.radj))}
	for i, es := range g.adj {
		c.adj[i] = es[:len(es):len(es)]
	}
	for i, es := range g.radj {
		c.radj[i] = es[:len(es):len(es)]
	}
	return c
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// CloneBytes returns the approximate number of bytes one Clone of this graph
// copies: the two adjacency header arrays (three words per vertex each).
// Engine tiers use it to meter stamping cost without instrumenting Clone
// itself.
func (g *Graph) CloneBytes() int64 {
	const sliceHeader = 24 // unsafe.Sizeof([]Edge{}) on 64-bit targets
	return int64(len(g.adj)+len(g.radj)) * sliceHeader
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total
}

// AddVertex appends a fresh isolated vertex and returns its id.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.radj = append(g.radj, nil)
	return len(g.adj) - 1
}

// AddVertexWithCaps is AddVertex with adjacency capacity hints: both lists
// are carved out of one backing allocation, so a vertex whose eventual
// degrees stay within the hints costs a single allocation no matter how its
// edges trickle in (incremental callers add them one sync at a time).
// Exceeding a hint falls back to ordinary append growth.
func (g *Graph) AddVertexWithCaps(outCap, inCap int) int {
	backing := make([]Edge, outCap+inCap)
	g.adj = append(g.adj, backing[0:0:outCap])
	g.radj = append(g.radj, backing[outCap:outCap:outCap+inCap])
	return len(g.adj) - 1
}

// AddEdge inserts the edge u --w--> v. Parallel edges are allowed (only the
// heaviest matters for longest paths). It panics on out-of-range vertices —
// vertex allocation is the caller's structural invariant.
func (g *Graph) AddEdge(u, v, w int) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge (%d,%d) outside 0..%d", u, v, len(g.adj)-1))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	g.radj[v] = append(g.radj[v], Edge{To: u, Weight: w})
}

// Out returns the out-edges of u. Callers must not mutate the result.
func (g *Graph) Out(u int) []Edge { return g.adj[u] }

// In returns the in-edges of u, pointing back at the edge sources with the
// same weights. Callers must not mutate the result.
func (g *Graph) In(u int) []Edge { return g.radj[u] }

// Scratch holds the reusable working buffers of the longest-path queries:
// distances, queue membership, relaxation counters, the SPFA ring queue and
// the tight-path reconstruction state, which only PathFrom grows. A zero
// Scratch is ready to use; the buffers grow to the largest graph queried and
// are then reused, so repeated queries on a (growing) graph stop allocating
// O(V) per call. A Scratch is owned by one querier at a time — it is not
// safe for concurrent use.
//
// Between runs every inQueue flag is false: a completed run drains its
// queue, and a run that stops on ErrPositiveCycle clears the flags of what
// it leaves queued (warm restarts check their arguments before queuing). Path
// lengths need no clearing either: the cycle check reads pathLen only for
// dequeued vertices, and each of those is a seed (whose count the run resets
// when queuing it) or was improved during the run (which wrote its count).
// So a run never pays O(V) for these two buffers, and a warm restart costs
// its delta, not the graph. A run that stops on ErrPositiveCycle leaves the
// scratch cold (n == 0): its distances are partial, and the warm restarts
// refuse to resume from them.
type Scratch struct {
	// Relaxations accumulates the number of successful SPFA relaxations
	// (distance improvements) across the queries run through this scratch —
	// a cheap work meter. Owners read and reset it at whatever granularity
	// they aggregate (bounds harvests it per query into engine counters).
	Relaxations int64

	// n is the vertex count covered by the most recent completed
	// computation, 0 while the scratch is cold; the warm restarts
	// (RelaxRestrictedFrom and its reverse twin) use it to initialize
	// vertices added since.
	n int

	dist    []int64
	inQueue []bool
	pathLen []int32
	queue   []int // ring buffer: at most one entry per vertex

	visited []bool
	from    []int
	stack   []int
}

// ensure grows the buffers to cover n vertices, preserving existing
// contents (warm restarts resume from the distances of the previous run).
func (s *Scratch) ensure(n int) {
	if n > cap(s.dist) {
		c := 2 * cap(s.dist)
		if c < n {
			c = n
		}
		dist := make([]int64, c)
		copy(dist, s.dist)
		s.dist = dist
		s.inQueue = make([]bool, c)
		s.pathLen = make([]int32, c)
		s.queue = make([]int, c)
	}
	s.dist = s.dist[:n]
	s.inQueue = s.inQueue[:n]
	s.pathLen = s.pathLen[:n]
	s.queue = s.queue[:n]
}

// Truncate forgets distances of vertices >= n, so that a subsequent
// warm restart treats re-allocated vertex ids (after PopVertex) as fresh. It
// never grows the covered range.
func (s *Scratch) Truncate(n int) {
	if n < s.n {
		s.n = n
	}
}

// Longest computes single-source longest-path distances from src using a
// queue-based Bellman–Ford (SPFA). dist[v] == NegInf means v is unreachable.
// It returns ErrPositiveCycle if a positive cycle is reachable from src.
func (g *Graph) Longest(src int) ([]int64, error) {
	return longest(src, g.adj, new(Scratch))
}

// LongestWith is Longest with caller-provided working buffers: the returned
// slice aliases s and stays valid only until s is used again.
func (g *Graph) LongestWith(s *Scratch, src int) ([]int64, error) {
	return longest(src, g.adj, s)
}

// LongestInto computes, for every vertex v, the weight of the longest path
// from v to dst, by running SPFA on the reversed graph. dist[v] == NegInf
// means dst is unreachable from v.
func (g *Graph) LongestInto(dst int) ([]int64, error) {
	return longest(dst, g.radj, new(Scratch))
}

func longest(src int, adj [][]Edge, s *Scratch) ([]int64, error) {
	n := len(adj)
	if src < 0 || src >= n {
		return nil, fmt.Errorf("graph: source %d outside 0..%d", src, n-1)
	}
	dist := s.start(n, src, nil)
	return dist, spfaRestricted(adj, s, 1, nil)
}

// LongestPath returns the weight of a longest path from src to dst and a
// vertex sequence realizing it. ok is false if dst is unreachable.
func (g *Graph) LongestPath(src, dst int) (weight int64, path []int, ok bool, err error) {
	return g.LongestPathWith(new(Scratch), src, dst)
}

// LongestPathWith is LongestPath with caller-provided working buffers; only
// the returned path is freshly allocated.
func (g *Graph) LongestPathWith(s *Scratch, src, dst int) (weight int64, path []int, ok bool, err error) {
	dist, err := g.LongestWith(s, src)
	if err != nil {
		return 0, nil, false, err
	}
	path, ok, err = g.PathFrom(s, dist, src, dst)
	if !ok || err != nil {
		return 0, nil, false, err
	}
	return dist[dst], path, true, nil
}

// PathFrom reconstructs a longest src->dst path from distances previously
// computed by Longest/LongestWith from src (callers holding the
// distances already avoid a second SPFA run). ok is false if dst is
// unreachable. The returned path is freshly allocated.
//
// Reconstruction walks backwards from dst over tight edges (edges with
// dist[u] + w == dist[v]) using a depth-first search with a visited set.
// Any simple tight path from src to dst telescopes to dist[dst], and the
// visited set makes the walk immune to zero-weight cycles, which bounds
// graphs contain whenever a channel has L == U.
func (g *Graph) PathFrom(s *Scratch, dist []int64, src, dst int) (path []int, ok bool, err error) {
	if dst < 0 || dst >= len(dist) || dist[dst] == NegInf {
		return nil, false, nil
	}
	n := len(dist)
	if cap(s.visited) < n {
		c := max(n, 2*cap(s.visited))
		s.visited = make([]bool, c)
		s.from = make([]int, c)
	}
	visited := s.visited[:n]
	from := s.from[:n] // tight-walk successor towards dst
	for i := range visited {
		visited[i] = false
		from[i] = -1
	}
	stack := append(s.stack[:0], dst)
	visited[dst] = true
	found := dst == src
	for len(stack) > 0 && !found {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.radj[v] {
			u := e.To
			if visited[u] || dist[u] == NegInf {
				continue
			}
			if dist[u]+int64(e.Weight) != dist[v] {
				continue // not tight: not on any maximal path through v
			}
			visited[u] = true
			from[u] = v
			if u == src {
				found = true
				break
			}
			stack = append(stack, u)
		}
	}
	s.stack = stack[:0]
	if !found {
		// dst is reachable, so a fully tight optimal path exists; not
		// finding one indicates internal inconsistency.
		return nil, false, fmt.Errorf("graph: no tight path %d->%d despite dist %d", src, dst, dist[dst])
	}
	path = append(path, src)
	for at := src; at != dst; {
		at = from[at]
		path = append(path, at)
	}
	return path, true, nil
}

// RemoveEdge deletes one occurrence of the edge u --w--> v, swapping the
// last entries of the affected adjacency lists into its slots. Adjacency
// ORDER is therefore not preserved — longest-path distances are unaffected,
// but callers relying on insertion-ordered tight-path reconstruction must
// not mix it with removal. It reports whether the edge was found.
func (g *Graph) RemoveEdge(u, v, w int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	if !removeEntry(&g.adj[u], v, w) {
		return false
	}
	if !removeEntry(&g.radj[v], u, w) {
		panic(fmt.Sprintf("graph: edge (%d,%d,%d) present forward but not backward", u, v, w))
	}
	return true
}

func removeEntry(es *[]Edge, to, w int) bool {
	s := *es
	for i := range s {
		if s[i].To == to && s[i].Weight == w {
			last := len(s) - 1
			s[i] = s[last]
			*es = s[:last]
			return true
		}
	}
	return false
}

// PopVertex removes the most recently added vertex, which must be isolated
// (remove its edges first). It is the rollback companion of AddVertex for
// speculative query vertices.
func (g *Graph) PopVertex() {
	last := len(g.adj) - 1
	if last < 0 {
		panic("graph: PopVertex on empty graph")
	}
	if len(g.adj[last]) != 0 || len(g.radj[last]) != 0 {
		panic(fmt.Sprintf("graph: PopVertex on non-isolated vertex %d", last))
	}
	g.adj = g.adj[:last]
	g.radj = g.radj[:last]
}

// Reachable reports whether dst is reachable from src.
func (g *Graph) Reachable(src, dst int) bool {
	seen := make([]bool, len(g.adj))
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == dst {
			return true
		}
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// ReachSet returns the set of vertices from which dst is reachable
// (including dst itself): the sigma-precedence set V_sigma of Definition 12
// when applied to a bounds graph.
func (g *Graph) ReachSet(dst int) []bool {
	seen := make([]bool, len(g.adj))
	seen[dst] = true
	stack := []int{dst}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.radj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
