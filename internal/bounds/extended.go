package bounds

import (
	"fmt"

	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Extended is the extended local bounds graph GE(r, sigma) of Definition 16.
// Its vertices are the nodes of past(r, sigma) plus one auxiliary vertex
// psi_i per process, standing for the earliest "over the horizon" delivery
// on i's timeline. Everything sigma can deduce about relative timing — in
// any run indistinguishable from r at sigma — corresponds to a path here.
//
// The graph is built from a run.View, i.e. from the *structure* of sigma's
// causal past alone: no real-time information enters, which is what makes
// the construction legitimate in the clockless model and usable by online
// agents (internal/live) exactly as by offline analysis.
//
// Extended is also the construction site for knowledge queries:
// VertexOfGeneral adds chain vertices for general nodes whose FFIP chains
// leave the past, so that the constraint paths of Definitions 17-22 become
// ordinary graph paths.
//
// Like Basic, the construction is dense: vertex ids come from precomputed
// per-process offsets, adjacency is presized by an exact degree count, and
// edge Step metadata is derived on demand from the vertex classes (past
// node / auxiliary / chain) rather than stored per edge.
type Extended struct {
	view *run.View
	g    *graph.Graph

	offset    []int // offset[p-1]: first vertex id of p's past nodes
	auxBase   int   // vertex id of psi_1
	chainBase int   // vertex id of the first beyond-horizon chain vertex

	// chainVertices memoizes beyond-horizon chain vertices by (parent
	// vertex, destination process). A chain vertex stands for the delivery,
	// at the destination process, of the unique FFIP message sent at its
	// parent, so the integer pair is a complete identity: queried nodes
	// sharing chain prefixes share vertices (required for the type-4
	// constraint paths of Definition 20) without building any string keys.
	chainVertices map[chainKey]int

	// chainNodes[v-chainBase] names chain vertex v by the general node of
	// the first query that reached it; every query reaching the vertex
	// denotes the same node in all runs indistinguishable at sigma.
	chainNodes []run.GeneralNode

	// scratch holds the SPFA and path-reconstruction buffers reused across
	// this graph's knowledge queries (like the graph itself, an Extended is
	// not safe for concurrent use).
	scratch graph.Scratch
}

// chainKey identifies a beyond-horizon chain vertex by integers alone.
type chainKey struct {
	parent int32
	to     model.ProcID
}

// NewExtended constructs GE(r, sigma) from a recorded run.
func NewExtended(r *run.Run, sigma run.BasicNode) (*Extended, error) {
	view, err := run.ViewOf(r, sigma)
	if err != nil {
		return nil, err
	}
	return NewExtendedFromView(view)
}

// NewExtendedFromView constructs the extended bounds graph from a subjective
// view — the entry point for online (clockless) agents. The graph keeps
// the view (Past returns it) and resolves query chains against it; its own
// vertex set stays as built when the view advances.
func NewExtendedFromView(view *run.View) (*Extended, error) {
	net := view.Net()
	n := net.N()
	e := &Extended{
		view:          view,
		offset:        make([]int, n),
		chainVertices: make(map[chainKey]int),
	}
	total := 0
	boundary := make([]int, n) // boundary index of p, or -1 if absent
	for p := model.ProcID(1); int(p) <= n; p++ {
		e.offset[p-1] = total
		boundary[p-1] = -1
		if bnd, ok := view.Boundary(p); ok {
			boundary[p-1] = bnd.Index
			total += bnd.Index + 1
		}
	}
	e.auxBase = total
	total += n
	e.chainBase = total

	deliveries := view.Deliveries()
	leaving := view.Leaving()
	arcs := net.Arcs()

	// Pass 1: exact degree counts for the four edge families of
	// Definition 16 — induced GB(r, sigma) (successors + per-delivery
	// pairs), E' (boundary -> psi), E'' (psi -> leaving sender) and E'''
	// (psi -> psi per channel).
	out := make([]int32, total)
	in := make([]int32, total)
	for p := 1; p <= n; p++ {
		off := e.offset[p-1]
		for k := 0; k < boundary[p-1]; k++ {
			out[off+k]++
			in[off+k+1]++
		}
	}
	for i := range deliveries {
		u := e.offset[deliveries[i].From.Proc-1] + deliveries[i].From.Index
		v := e.offset[deliveries[i].To.Proc-1] + deliveries[i].To.Index
		out[u]++
		in[v]++
		out[v]++
		in[u]++
	}
	for p := 1; p <= n; p++ {
		if k := boundary[p-1]; k >= 0 {
			out[e.offset[p-1]+k]++
			in[e.auxBase+p-1]++
		}
	}
	for i := range leaving {
		out[e.auxBase+int(leaving[i].To)-1]++
		in[e.offset[leaving[i].From.Proc-1]+leaving[i].From.Index]++
	}
	for i := range arcs {
		out[e.auxBase+int(arcs[i].To)-1]++
		in[e.auxBase+int(arcs[i].From)-1]++
	}
	e.g = graph.NewWithDegrees(out, in)

	// Pass 2: insert edges in the historical order (induced successors,
	// induced message pairs, E', E'', E''') so adjacency order — and hence
	// path reconstruction — is unchanged.
	for p := 1; p <= n; p++ {
		off := e.offset[p-1]
		for k := 0; k < boundary[p-1]; k++ {
			e.g.AddEdge(off+k, off+k+1, 1)
		}
	}
	for i := range deliveries {
		// p-closedness of the past: the sender of a message received inside
		// the past is inside the past.
		u := e.offset[deliveries[i].From.Proc-1] + deliveries[i].From.Index
		v := e.offset[deliveries[i].To.Proc-1] + deliveries[i].To.Index
		bd := net.BoundsOf(deliveries[i].Chan)
		e.g.AddEdge(u, v, bd.Lower)
		e.g.AddEdge(v, u, -bd.Upper)
	}
	for p := 1; p <= n; p++ {
		if k := boundary[p-1]; k >= 0 {
			e.g.AddEdge(e.offset[p-1]+k, e.auxBase+p-1, 1)
		}
	}
	for i := range leaving {
		u := net.BoundsOf(leaving[i].Chan).Upper
		e.g.AddEdge(e.auxBase+int(leaving[i].To)-1,
			e.offset[leaving[i].From.Proc-1]+leaving[i].From.Index, -u)
	}
	for i := range arcs {
		e.g.AddEdge(e.auxBase+int(arcs[i].To)-1, e.auxBase+int(arcs[i].From)-1,
			-arcs[i].Bounds.Upper)
	}
	return e, nil
}

// Net returns the network.
func (e *Extended) Net() *model.Network { return e.view.Net() }

// Past returns past(r, sigma): the view the graph was built from.
func (e *Extended) Past() *run.View { return e.view }

// Graph exposes the raw weighted graph.
func (e *Extended) Graph() *graph.Graph { return e.g }

// NumVertices returns the current number of vertices (past nodes, auxiliary
// vertices and any chain vertices added by queries).
func (e *Extended) NumVertices() int { return e.g.N() }

// NumEdges returns the current number of edges.
func (e *Extended) NumEdges() int { return e.g.NumEdges() }

// VertexOfPast returns the vertex id of a past basic node. Membership is
// read off the graph's per-process vertex blocks, fixed at construction,
// so a node the view gains after the graph was built is not in the graph.
func (e *Extended) VertexOfPast(n run.BasicNode) (int, error) {
	if p := int(n.Proc); p >= 1 && p <= len(e.offset) && n.Index >= 0 {
		end := e.auxBase
		if p < len(e.offset) {
			end = e.offset[p]
		}
		if v := e.offset[p-1] + n.Index; v < end {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: %s not in past(%s)", ErrNotInGraph, n, e.view.Origin())
}

// AuxVertex returns the vertex id of psi_p.
func (e *Extended) AuxVertex(p model.ProcID) int { return e.auxBase + int(p) - 1 }

// isAux reports whether v is an auxiliary horizon vertex.
func (e *Extended) isAux(v int) bool { return v >= e.auxBase && v < e.chainBase }

// isChain reports whether v is a beyond-horizon chain vertex.
func (e *Extended) isChain(v int) bool { return v >= e.chainBase }

// PointOf inverts vertex ids back to Points (for introspection and the
// figure renderings).
func (e *Extended) PointOf(v int) Point {
	if e.isAux(v) {
		return AuxPoint(model.ProcID(v - e.auxBase + 1))
	}
	if e.isChain(v) {
		return NodePoint(e.chainNodes[v-e.chainBase])
	}
	for i := len(e.offset) - 1; i >= 0; i-- {
		if v >= e.offset[i] {
			return NodePoint(run.At(run.BasicNode{Proc: model.ProcID(i + 1), Index: v - e.offset[i]}))
		}
	}
	panic(fmt.Sprintf("bounds: vertex %d out of range", v))
}
