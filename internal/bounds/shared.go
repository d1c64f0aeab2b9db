package bounds

import (
	"errors"
	"fmt"
	"sync"

	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Shared is the run-lifetime tier of the knowledge engine hierarchy
// (NetworkEngine → PrefixEngine → Shared → Handle): one standing extended
// graph, grown over the union of every subscribed agent's view, serving
// all of them. A live run with m knowledge-based agents would otherwise
// maintain m private graphs that overlap almost entirely — every agent's
// view is a restriction of the same run — so the standing vertex and edge
// tables are built once here and each agent keeps only what is genuinely
// its own: a Handle with its view frontier, its private E” horizon edges
// and a leased query scratch. Everything that depends only on the network —
// the aux band prototype, presizing hints and the scratch pool — lives one
// tier up in the NetworkEngine, so runs of one topology share it instead of
// re-deriving it (NetworkEngine.NewRun).
//
// The standing graph holds exactly the frontier-independent material of
// Definition 16:
//
//   - node vertices in arrival order (the auxiliary psi band first, at fixed
//     ids 0..n-1, so a handle's frontier is a per-process-band prefix),
//   - successor edges and delivery edge pairs (induced GB(r, sigma)), each
//     delivery wired once, by the sync that first absorbs its receiver,
//   - the fixed E”' psi-to-psi channel edges.
//
// The two frontier-dependent families never enter the standing tables. E'
// boundary edges are a pure function of the frontier, so queries relax them
// virtually (graph.Restriction.BoundaryTo). E” edges — psi_q to the sender
// of a message whose delivery the agent has not seen — differ per agent: a
// delivery inside the run but beyond an agent's frontier must still
// constrain that agent. Each handle therefore maintains its own E” set as
// a per-psi overlay adjacency, retiring an entry when the agent sees the
// delivery.
//
// A query relaxes the standing graph restricted to the handle's frontier
// (graph.LongestRestricted / RelaxRestrictedFrom), which by construction is
// vertex-for-vertex the extended graph a fresh NewExtendedFromView would
// build on the agent's view — plus dominated stale material outside the
// frontier that the restriction hides — so Knows/KnowledgeWeight answers
// coincide exactly with fresh per-view builds at every state
// (TestSharedMatchesFreshBuild asserts this differentially).
//
// A single agent with no run to share — Protocol2's default — is served the
// same way, by a one-handle run: NewNetworkEngine(net).NewRun().NewHandle(v).
// The engine then holds exactly that agent's graph, and the frontier hides
// nothing.
//
// Shared is safe for concurrent use by multiple handles: engine growth and
// speculative chain vertices are serialized by one mutex (the live
// environment's lockstep already serializes agents; the lock makes the
// engine honest under any schedule), and the scratch pool is serialized by
// the NetworkEngine's own mutex. A Handle belongs to a single agent
// goroutine. Distinct runs stamped from one NetworkEngine never contend:
// their standing graphs are independent clones of the immutable aux
// prototype.
type Shared struct {
	mu  sync.Mutex
	eng *NetworkEngine
	n   int
	g   *graph.Graph

	// members[p-1] is the highest node index of process p whose inbox is
	// wired into the standing graph (-1 if none): the union frontier over
	// all handles. A sync first appends the vertices its view newly
	// reaches (vertexOf grows), then wires the inboxes of the nodes above
	// members and raises members to match vertexOf.
	members []int
	// vertexOf[p-1][k] is the vertex id of node (p, k).
	vertexOf [][]int32
	// band/idx are the graph.Restriction coordinates, one entry per vertex:
	// aux and chain vertices are always visible, node (p, k) carries
	// (p-1, k).
	band, idx []int32

	// pendingKey is the run fingerprint this Shared was stamped towards by
	// NewRunAt on a cache miss: CommitPrefix freezes the standing state into
	// the engine's prefix cache under it. Zero means nothing to commit
	// (plain NewRun, or already committed). fromPrefix records that the
	// standing state started from a frozen prefix rather than empty.
	pendingKey uint64
	fromPrefix bool
	handles    []*Handle // every subscribed handle, for Release
}

// Net returns the network the engine serves.
func (s *Shared) Net() *model.Network { return s.eng.net }

// FromPrefix reports whether this run's standing state was stamped from a
// frozen prefix (a NewRunAt cache hit) rather than grown from empty.
func (s *Shared) FromPrefix() bool { return s.fromPrefix }

// CommitPrefix freezes the standing state — graph, frontier, vertex and
// coordinate tables — into the network engine's prefix cache under the
// fingerprint this Shared was stamped towards by NewRunAt, and reports
// whether it committed. It is a no-op (false) on Shareds with
// nothing pending: plain NewRun stamps, NewRunAt hits, and repeat calls.
//
// Callers commit once the run's material has been fully absorbed (every
// agent synced through its final state), so the frozen snapshot stands in
// for the whole run. Committing earlier is sound but caches less: stamped
// runs absorb the difference through ordinary handle syncs. The freeze
// aliases the graph and coordinate backing per the graph.Clone
// freeze-and-extend contract, so this Shared remains fully usable after
// committing — later appends land beyond the frozen lengths and speculative
// chain material is added and removed strictly above them.
func (s *Shared) CommitPrefix() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingKey == 0 {
		return false
	}
	fz := &frozenPrefix{
		g:        s.g.Clone(),
		members:  append([]int(nil), s.members...),
		vertexOf: make([][]int32, s.n),
		band:     s.band[:len(s.band):len(s.band)],
		idx:      s.idx[:len(s.idx):len(s.idx)],
	}
	for i, vs := range s.vertexOf {
		fz.vertexOf[i] = vs[:len(vs):len(vs)]
	}
	s.eng.Note(EngineStats{CloneBytes: s.g.CloneBytes()})
	s.eng.prefixes.insert(s.pendingKey, fz)
	s.pendingKey = 0
	return true
}

// NumVertices returns the current number of standing vertices.
func (s *Shared) NumVertices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.N()
}

// NumEdges returns the current number of standing edges.
func (s *Shared) NumEdges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.NumEdges()
}

// absorbTimeline extends process p's standing vertices (and successor
// edges) through node index cur; their inboxes are wired later in the same
// sync. Callers hold s.mu.
func (s *Shared) absorbTimeline(p model.ProcID, cur int) {
	for k := len(s.vertexOf[p-1]); k <= cur; k++ {
		vtx := s.g.AddVertexWithCaps(s.eng.outCap[p-1], s.eng.inCap[p-1])
		s.vertexOf[p-1] = append(s.vertexOf[p-1], int32(vtx))
		s.band = append(s.band, int32(p-1))
		s.idx = append(s.idx, int32(k))
		if k > 0 {
			s.g.AddEdge(int(s.vertexOf[p-1][k-1]), vtx, 1)
		}
	}
}

// Handle is one agent's subscription to a Shared engine: the agent's view
// frontier (per-process boundary indices, which are the restriction
// limits), its private E” overlay, its accumulated re-relaxation seeds and
// its leased scratch. A Handle is owned by one goroutine; concurrent
// handles of the same engine are safe against each other.
type Handle struct {
	shared *Shared
	view   *run.View

	// limit[p-1] is the boundary index covered by the last sync (-1 if the
	// process had not entered the view): the handle's frontier, passed as
	// the graph.Restriction limits, so a standing vertex is visible to the
	// handle iff it lies at or below its band's limit. prev is its scratch
	// copy so the delivery pass can tell new senders from old ones.
	limit []int32
	prev  []int32
	// delta is the sync's reused buffer of deliveries into newly covered
	// nodes.
	delta []run.Delivery
	// overlay[q-1] holds the agent's live E'' edges out of psi_q.
	overlay [][]graph.Edge

	// scratch is leased from the engine pool; between syncs it holds the
	// fixpoint distances from cacheSrc under this handle's frontier, so the
	// next query from the same source re-relaxes only the delta. seeds
	// accumulates the sources of edges that became visible to this handle
	// since; querySeeds is its per-query working copy.
	scratch    *graph.Scratch
	cacheSrc   int
	cacheValid bool
	seeds      []int
	querySeeds []int
	// admitted accumulates the vertices that entered this handle's frontier
	// since the last relaxation, so the warm restart drops their
	// masked-distance sentinels (see graph.RelaxRestrictedFrom).
	admitted []int

	// The reverse cache serves the inverted (Early-kind) query shape: the
	// target is fixed while the source moves with the agent, so u ==
	// cacheSrc never holds and the forward cache is useless: every
	// reverse-served query retires it (cacheValid false, seeds and admitted
	// empty), so its delta lists stop growing with the horizon. revScratch —
	// leased only once the shape appears, so Late-kind agents never pay for
	// it — holds the fixpoint of longest-path distances INTO revCacheDst
	// under this handle's frontier. The delta lists mirror the forward
	// cache's with reverse orientation: revSeeds accumulates the HEADS of
	// edges that became visible since the last reverse relaxation,
	// revAdmitted the newly admitted vertices. revRetired records that an
	// E'' overlay entry retired since: retirement can LOWER reverse
	// distances on the aux band (and only there — node-vertex reverse
	// distances are knowledge weights, which persist), so the next warm
	// reverse run re-derives the whole band (DESIGN.md §13).
	revScratch    *graph.Scratch
	revCacheDst   int
	revCacheValid bool
	revSeeds      []int
	revQuerySeeds []int
	revAdmitted   []int
	revRetired    bool
	// rmirror mirrors overlay transposed — the agent's E'' edges keyed by
	// their head (sender) vertex — feeding graph.Restriction.ROverlay; bfrom
	// holds the handle's per-band boundary vertex for
	// graph.Restriction.BoundaryFrom. Like the reverse scratch, the mirror is
	// lazy: the first reverse query creates it and transposes the overlay
	// accumulated so far; until then (rmirror nil) sync skips all reverse
	// bookkeeping, so handles that never see the Early shape pay nothing.
	// Its slots hold the network's maximum out-degree, and a sender's slot
	// is recycled once its last entry retires, so the mirror's storage
	// tracks the E'' entries in flight, not the horizon.
	rmirror *graph.Mirror
	bfrom   []int32

	// stats sums the handle's per-query counters (the StatFields entries
	// marked Handle); every query also notes its own to the engine.
	stats EngineStats

	// Per-query chain-vertex state, rolled back after each query.
	chainKeys []chainKey
	chainIDs  []int
	undo      []chainUndo
}

// chainUndo records one speculative chain vertex for rollback.
type chainUndo struct {
	parent, eta, aux int
	lower, upper     int
}

// Stats returns the handle's cumulative per-query counters. Unlike the
// scratch, they survive Release, so post-run harvesting works on released
// handles.
func (h *Handle) Stats() EngineStats { return h.stats }

// count folds one query's counters into the handle's and the engine's.
func (h *Handle) count(d EngineStats) {
	if d == (EngineStats{}) {
		return
	}
	h.stats.Add(d)
	h.shared.eng.Note(d)
}

// ErrViewMismatch reports a view subscribed to an engine of a structurally
// different network.
var ErrViewMismatch = errors.New("bounds: view of a different network")

// NewHandle subscribes a growing view to the engine. The handle starts
// empty and absorbs the view's current content on the first query; it must
// observe every later state through the same View value. It returns
// ErrViewMismatch if the view lives in a structurally different network
// than the engine (a wiring bug, like adding an edge to a foreign vertex);
// a distinct but content-equal *model.Network value — sweeps rebuild equal
// topologies per scenario variant — is accepted, since every table the
// engine derives (channel ids, bounds, adjacency) is a function
// of the network's content fingerprint.
func (s *Shared) NewHandle(view *run.View) (*Handle, error) {
	if vn := view.Net(); vn != s.eng.net && vn.Fingerprint() != s.eng.net.Fingerprint() {
		return nil, fmt.Errorf("%w: view fingerprint %x, engine fingerprint %x",
			ErrViewMismatch, view.Net().Fingerprint(), s.eng.net.Fingerprint())
	}
	h := &Handle{
		shared:      s,
		view:        view,
		limit:       make([]int32, s.n),
		prev:        make([]int32, s.n),
		overlay:     make([][]graph.Edge, s.n),
		bfrom:       make([]int32, s.n),
		cacheSrc:    -1,
		revCacheDst: -1,
	}
	for i := range h.limit {
		h.limit[i] = -1
		h.bfrom[i] = -1
	}
	h.scratch = s.eng.leaseScratch()
	s.mu.Lock()
	s.handles = append(s.handles, h)
	s.mu.Unlock()
	return h, nil
}

// Release releases every handle of the run (Handle.Release) once none will
// query again, so the run returns all its scratches to the engine pool,
// also those of agents that never made a last query.
func (s *Shared) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.handles {
		h.Release()
	}
	s.handles = nil
}

// View returns the subscribed view.
func (h *Handle) View() *run.View { return h.view }

// Release returns the handle's scratch to the network engine's pool. An
// agent that has made its last query (Protocol2 after acting) releases so
// later subscribers — of this run or any later run of the network — reuse
// the buffers; a released handle that queries again simply leases a fresh
// scratch and rebuilds its cache.
func (h *Handle) Release() {
	if h.scratch != nil {
		h.shared.eng.releaseScratch(h.scratch)
		h.scratch = nil
	}
	h.cacheValid = false
	if h.revScratch != nil {
		h.shared.eng.releaseScratch(h.revScratch)
		h.revScratch = nil
	}
	h.revCacheValid = false
}

// vertex returns the standing vertex id of a node known to be absorbed.
func (h *Handle) vertex(b run.BasicNode) int {
	return int(h.shared.vertexOf[b.Proc-1][b.Index])
}

// Sync absorbs the view's growth since the last call into the engine (new
// timelines and deliveries become standing material, each once across
// handles) and into the handle (frontier limits, E” overlay, re-relaxation
// seeds). Queries sync implicitly.
func (h *Handle) Sync() error {
	s := h.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.sync()
}

// sync is Sync with s.mu held.
func (h *Handle) sync() error {
	s := h.shared
	net := h.view.Net()
	copy(h.prev, h.limit)
	grew := false

	// Pass 1: frontiers. The standing vertices grow to cover this view
	// (pass 2 wires the inboxes of the new ones); the handle records its
	// own boundary indices as its limits, seeds the successor edges that
	// just became visible to it and the moved virtual boundary edge, and
	// adds E'' overlay entries for the new nodes' sends that its view has
	// not seen delivered. The leaving check consults the fully-updated
	// view, so a send whose delivery arrives within this same sync never
	// enters the overlay.
	for p := model.ProcID(1); int(p) <= s.n; p++ {
		cur := -1
		if bnd, ok := h.view.Boundary(p); ok {
			cur = bnd.Index
		}
		old := int(h.limit[p-1])
		if cur == old {
			continue
		}
		grew = true
		s.absorbTimeline(p, cur)
		for k := old + 1; k <= cur; k++ {
			h.admitted = append(h.admitted, int(s.vertexOf[p-1][k]))
			if k > 0 {
				h.seeds = append(h.seeds, int(s.vertexOf[p-1][k-1]))
			}
			if h.revCacheValid {
				// Reverse seeds are edge HEADS: the new vertex heads its
				// predecessor's successor edge (and its own sends' E''
				// entries).
				h.revAdmitted = append(h.revAdmitted, int(s.vertexOf[p-1][k]))
				h.revSeeds = append(h.revSeeds, int(s.vertexOf[p-1][k]))
			}
		}
		h.seeds = append(h.seeds, int(s.vertexOf[p-1][cur]))
		if h.revCacheValid {
			// The moved virtual boundary edge: its tail is the new boundary
			// vertex (forward seed above), its head the band's psi anchor.
			h.revSeeds = append(h.revSeeds, int(p)-1)
		}
		h.bfrom[p-1] = s.vertexOf[p-1][cur]
		first := old + 1
		if first < 1 {
			first = 1
		}
		for k := first; k <= cur; k++ {
			from := run.BasicNode{Proc: p, Index: k}
			for _, a := range net.OutArcs(p) {
				if _, ok := h.view.DeliveryTo(from, a.To); !ok {
					sender := int(s.vertexOf[p-1][k])
					h.overlay[a.To-1] = append(h.overlay[a.To-1], graph.Edge{
						To: sender, Weight: -a.Bounds.Upper,
					})
					if h.rmirror != nil {
						h.rmirror.Add(sender, int(a.To)-1, -a.Bounds.Upper)
					}
					h.seeds = append(h.seeds, int(a.To)-1)
				}
			}
		}
		h.limit[p-1] = int32(cur)
	}

	// Pass 2: the new deliveries, which are the inboxes of the nodes pass 1
	// newly covered (a view is downward-closed, so nothing else changed,
	// and every sender is standing). A delivery into a node above the
	// union frontier is seen for the first time by any handle, so its
	// standing edge pair is wired here, in (process, index, sender) order;
	// every other delivery is standing already. A delivery whose sender
	// predates this sync retires the overlay entry recorded for it
	// earlier. Retirement does not invalidate the cached forward
	// distances: per-state fresh distances of this agent are pointwise
	// non-decreasing — on node vertices they are, by Theorem 4, the
	// knowledge weights against the fixed cached source, and knowledge is
	// persistent; on the aux band every input is a boundary edge whose
	// support only strengthens — so the cache stays a valid
	// under-approximating warm start and re-relaxing from the added edges'
	// sources converges to the exact new fixpoint. Once the delta is
	// walked, the union frontier rises to the vertices pass 1 appended.
	h.delta = h.delta[:0]
	for i, cur := range h.limit {
		for k := int(h.prev[i]) + 1; k <= int(cur); k++ {
			h.delta = h.view.AppendInbox(h.delta, run.BasicNode{Proc: model.ProcID(i + 1), Index: k})
		}
	}
	for i := range h.delta {
		d := &h.delta[i]
		grew = true
		bd := net.BoundsOf(d.Chan)
		u := h.vertex(d.From)
		v := h.vertex(d.To)
		if d.To.Index > s.members[d.To.Proc-1] {
			s.g.AddEdge(u, v, bd.Lower)
			s.g.AddEdge(v, u, -bd.Upper)
		}
		h.seeds = append(h.seeds, u, v)
		if h.revCacheValid {
			h.revSeeds = append(h.revSeeds, u, v)
		}
		if d.From.Index <= int(h.prev[d.From.Proc-1]) {
			if !removeOverlayEdge(&h.overlay[d.To.Proc-1], u, -bd.Upper) {
				return fmt.Errorf("bounds: shared handle lost the E'' edge of %s->%d", d.From, d.To.Proc)
			}
			if h.rmirror != nil {
				if !h.rmirror.Remove(u, int(d.To.Proc)-1, -bd.Upper) {
					return fmt.Errorf("bounds: shared handle lost the reverse E'' edge of %s->%d", d.From, d.To.Proc)
				}
			}
			// Retirement can lower reverse distances on the aux band; the
			// next warm reverse run must re-derive it before trusting the
			// cache.
			h.revRetired = h.revRetired || h.revCacheValid
		}
	}
	for i, vs := range s.vertexOf {
		s.members[i] = len(vs) - 1
	}
	if grew && !h.cacheValid {
		h.seeds = h.seeds[:0]
		h.admitted = h.admitted[:0]
	}
	return nil
}

// enableReverse begins reverse bookkeeping on first use: the forward overlay
// accumulated so far is transposed into the mirror, and from now on sync
// keeps the mirror in step.
func (h *Handle) enableReverse() {
	h.rmirror = graph.NewMirror(h.shared.eng.maxOutDeg)
	for q := range h.overlay {
		for _, e := range h.overlay[q] {
			h.rmirror.Add(e.To, q, e.Weight)
		}
	}
}

// removeOverlayEdge swap-deletes one overlay entry; order is irrelevant
// (overlays only feed relaxation).
func removeOverlayEdge(es *[]graph.Edge, to, w int) bool {
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

// vertexOfGeneral mirrors Extended.VertexOfGeneral on the standing graph,
// materializing speculative chain vertices (always visible, recorded in
// h.undo for rollback) for hops beyond the handle's view. A chain vertex's
// edges add no constraint between standing vertices — its only exit edge,
// back to its parent, is dominated by the E” edge that exists whenever the
// chain vertex does — so speculative queries leave no trace in the cached
// distances.
func (h *Handle) vertexOfGeneral(theta run.GeneralNode) (int, error) {
	s := h.shared
	net := h.view.Net()
	if err := theta.Valid(net); err != nil {
		return 0, err
	}
	if !h.view.Contains(theta.Base) {
		return 0, fmt.Errorf("%w: %s", ErrNotRecognized, theta)
	}
	if theta.Path.Hops() == 0 {
		// Basic node: no chain to resolve, no prefix slice to allocate.
		return h.vertex(theta.Base), nil
	}
	prefix, hops := h.view.ResolvePrefix(theta)
	cur := prefix[len(prefix)-1]
	if hops == theta.Path.Hops() {
		return h.vertex(cur), nil
	}
	if cur.IsInitial() {
		return 0, fmt.Errorf("%w: %s stalls at %s", ErrInitialChain, theta, cur)
	}
	curVertex := h.vertex(cur)
	for k := hops + 1; k <= theta.Path.Hops(); k++ {
		from, to := theta.Path[k-1], theta.Path[k]
		key := chainKey{parent: int32(curVertex), to: to}
		next := -1
		for i := range h.chainKeys {
			if h.chainKeys[i] == key {
				next = h.chainIDs[i]
				break
			}
		}
		if next < 0 {
			bd, berr := net.ChanBounds(from, to)
			if berr != nil {
				return 0, berr
			}
			next = s.g.AddVertex()
			s.band = append(s.band, 0)
			s.idx = append(s.idx, graph.AlwaysVisible)
			h.chainKeys = append(h.chainKeys, key)
			h.chainIDs = append(h.chainIDs, next)
			s.g.AddEdge(curVertex, next, bd.Lower)
			s.g.AddEdge(next, curVertex, -bd.Upper)
			s.g.AddEdge(int(to)-1, next, 0)
			h.undo = append(h.undo, chainUndo{
				parent: curVertex, eta: next, aux: int(to) - 1,
				lower: bd.Lower, upper: bd.Upper,
			})
		}
		curVertex = next
	}
	return curVertex, nil
}

// rollback removes this query's speculative chain vertices, restoring the
// standing graph and forgetting their cached distances.
func (h *Handle) rollback(base int) {
	s := h.shared
	for i := len(h.undo) - 1; i >= 0; i-- {
		u := h.undo[i]
		s.g.RemoveEdge(u.aux, u.eta, 0)
		s.g.RemoveEdge(u.eta, u.parent, -u.upper)
		s.g.RemoveEdge(u.parent, u.eta, u.lower)
	}
	for s.g.N() > base {
		s.g.PopVertex()
	}
	s.band = s.band[:base]
	s.idx = s.idx[:base]
	h.undo = h.undo[:0]
	h.chainKeys = h.chainKeys[:0]
	h.chainIDs = h.chainIDs[:0]
	h.scratch.Truncate(base)
	if h.revScratch != nil {
		h.revScratch.Truncate(base)
	}
}

// KnowledgeWeight computes kw = max{ x : K_sigma(theta1 --x--> theta2) } at
// the agent's current state, agreeing exactly with
// Extended.KnowledgeWeight on a fresh build from the agent's view. known is
// false — with err == nil — when no bound is known at any x. (Witness steps
// are an offline concern; online agents decide on the weight alone.)
func (h *Handle) KnowledgeWeight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error) {
	var d EngineStats
	kw, known, err = h.weight(theta1, theta2, &d)
	h.count(d)
	return kw, known, err
}

// weight is KnowledgeWeight counting into d.
func (h *Handle) weight(theta1, theta2 run.GeneralNode, d *EngineStats) (kw int, known bool, err error) {
	s := h.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := h.sync(); err != nil {
		return 0, false, err
	}
	if h.scratch == nil {
		h.scratch = s.eng.leaseScratch()
	}
	base := s.g.N()
	u, err := h.vertexOfGeneral(theta1)
	if err != nil {
		h.rollback(base)
		return 0, false, err
	}
	v, err := h.vertexOfGeneral(theta2)
	if err != nil {
		h.rollback(base)
		return 0, false, err
	}

	r := graph.Restriction{
		Band: s.band, Idx: s.idx, Limit: h.limit,
		Overlay: h.overlay, ROverlay: h.rmirror,
		BoundaryTo: s.eng.boundaryTo, BoundaryWeight: 1,
		BoundaryFrom: h.bfrom,
	}
	// The chain edges materialized above relax into the standing distances
	// without disturbing them, forward and reverse alike (their exit edges
	// are dominated, see vertexOfGeneral), so a cached run keyed on the same
	// endpoint only needs the accumulated delta seeds.
	//
	// Which cache serves is decided by the query's shape. A source matching
	// the forward cache relaxes forward warm — the Late-kind steady state.
	// Otherwise a standing target routes through the reverse cache (warm
	// when the target matches, full reverse rebuild when not): the miss
	// means the source moved, which is exactly the Early-kind shape whose
	// next states will keep the target fixed. A cold engine (neither cache
	// valid) or a speculative chain-vertex target relaxes forward full,
	// establishing the forward cache — so a Late-kind agent's very first
	// query never detours through the reverse side.
	var dist []int64
	var answer int64
	switch {
	case h.cacheValid && u == h.cacheSrc:
		h.querySeeds = append(h.querySeeds[:0], h.seeds...)
		for i := range h.undo {
			h.querySeeds = append(h.querySeeds, h.undo[i].parent, h.undo[i].aux)
		}
		dist, err = s.g.RelaxRestrictedFrom(h.scratch, h.querySeeds, h.admitted, &r)
		if err == nil {
			answer = dist[v]
		}
	case v < base && (h.cacheValid || h.revCacheValid):
		if h.revScratch == nil {
			h.revScratch = s.eng.leaseScratch()
		}
		if h.rmirror == nil {
			h.enableReverse()
			r.ROverlay = h.rmirror
		}
		if h.revCacheValid && v == h.revCacheDst {
			h.revQuerySeeds = append(h.revQuerySeeds[:0], h.revSeeds...)
			for i := range h.undo {
				h.revQuerySeeds = append(h.revQuerySeeds, h.undo[i].parent)
			}
			var refresh []int
			if h.revRetired {
				refresh = s.eng.auxRefresh
				d.BandRefreshes++
			}
			dist, err = s.g.RelaxReverseRestrictedFrom(h.revScratch, h.revQuerySeeds, h.revAdmitted, refresh, &r)
			d.RevHits++
		} else {
			dist, err = s.g.LongestIntoRestricted(h.revScratch, v, &r)
			h.revCacheDst = v
			h.revCacheValid = true
			d.RevRebuilds++
		}
		d.RevRelaxations += h.revScratch.Relaxations
		h.revScratch.Relaxations = 0
		if err != nil {
			h.revCacheValid = false
			h.rollback(base)
			return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
		}
		// The reverse scratch holds this handle's into-target fixpoint over
		// every visible edge, so the reverse delta restarts empty.
		h.revSeeds = h.revSeeds[:0]
		h.revAdmitted = h.revAdmitted[:0]
		h.revRetired = false
		// The reverse cache has taken over: an Early-kind agent's source
		// keeps moving, so the forward cache would never be read again,
		// while its delta lists would grow by every sync. Retire it; a
		// later forward query rebuilds it from scratch.
		h.cacheValid = false
		h.seeds = h.seeds[:0]
		h.admitted = h.admitted[:0]
		answer = dist[u]
		w, reachable := int(answer), answer != graph.NegInf
		h.rollback(base)
		if !reachable {
			return 0, false, nil
		}
		return w, true, nil
	default:
		dist, err = s.g.LongestRestricted(h.scratch, u, &r)
		h.cacheSrc = u
		h.cacheValid = u < base
		if err == nil {
			answer = dist[v]
		}
	}
	d.Relaxations += h.scratch.Relaxations
	h.scratch.Relaxations = 0
	if err != nil {
		h.cacheValid = false
		h.rollback(base)
		return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
	}
	// Either way the scratch now holds this handle's fixpoint over every
	// visible edge, so the delta restarts empty.
	h.seeds = h.seeds[:0]
	h.admitted = h.admitted[:0]
	w, reachable := int(answer), answer != graph.NegInf
	h.rollback(base)
	if !reachable {
		return 0, false, nil
	}
	return w, true, nil
}

// KnowsAt evaluates a threshold grid against one weight computation:
// holds[i] reports K_sigma(theta1 --xs[i]--> theta2) at the agent's current
// state, agreeing exactly with Extended.KnowsAt on a fresh build, for the
// price of a single (possibly cache-warm) restricted SPFA. holds must have
// at least len(xs) entries. A grid of two or more thresholds counts as
// batched queries: len(xs) served, len(xs)-1 of them without their own
// relaxation; a one-threshold query counts only its weight computation.
func (h *Handle) KnowsAt(theta1 run.GeneralNode, xs []int, theta2 run.GeneralNode, holds []bool) (kw int, known bool, err error) {
	var d EngineStats
	kw, known, err = h.weight(theta1, theta2, &d)
	if err == nil {
		for i, x := range xs {
			holds[i] = known && kw >= x
		}
		if len(xs) > 1 {
			d.BatchQueries = int64(len(xs))
			d.BatchHits = int64(len(xs) - 1)
		}
	}
	h.count(d)
	return kw, known, err
}
