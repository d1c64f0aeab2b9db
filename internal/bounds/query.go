package bounds

import (
	"errors"
	"fmt"

	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/run"
)

// Knowledge query errors.
var (
	ErrNotRecognized = errors.New("bounds: general node not sigma-recognized")
	ErrInitialChain  = errors.New("bounds: message chain cannot leave an initial node")
	ErrNoKnowledge   = errors.New("bounds: no bound is known (no constraint path)")
)

// VertexOfGeneral returns the query-graph vertex representing the general
// node theta = <sigma', p'>. theta must be sigma-recognized (sigma' in
// past(r, sigma)). The chain is resolved against the run while it stays
// inside the past; the suffix beyond the horizon is materialized as fresh
// chain vertices carrying the constraint edges
//
//	prev --L--> eta,  eta --(-U)--> prev,  psi_proc(eta) --0--> eta,
//
// deduplicated across queries by the integer pair (parent vertex, next
// process) — a complete identity for the delivery the vertex denotes — so
// that nodes sharing chain prefixes share vertices (Definition 20's type-4
// constraint paths need this).
func (e *Extended) VertexOfGeneral(theta run.GeneralNode) (int, error) {
	if err := theta.Valid(e.view.Net()); err != nil {
		return 0, err
	}
	if !e.view.Contains(theta.Base) {
		return 0, fmt.Errorf("%w: %s", ErrNotRecognized, theta)
	}
	if theta.Path.Hops() == 0 {
		// Basic node: no chain to resolve, and no prefix slice to build —
		// this keeps the weight-only threshold query allocation-free.
		return e.VertexOfPast(theta.Base)
	}
	prefix, hops := e.view.ResolvePrefix(theta)
	cur := prefix[len(prefix)-1]
	if hops == theta.Path.Hops() {
		return e.VertexOfPast(cur)
	}
	if cur.IsInitial() {
		// The chain stalled because an initial node never sends; such a
		// general node denotes nothing in any run containing sigma.
		return 0, fmt.Errorf("%w: %s stalls at %s", ErrInitialChain, theta, cur)
	}
	curVertex, err := e.VertexOfPast(cur)
	if err != nil {
		return 0, err
	}
	net := e.view.Net()
	for k := hops + 1; k <= theta.Path.Hops(); k++ {
		from, to := theta.Path[k-1], theta.Path[k]
		key := chainKey{parent: int32(curVertex), to: to}
		next, ok := e.chainVertices[key]
		if !ok {
			next = e.g.AddVertex()
			e.chainVertices[key] = next
			e.chainNodes = append(e.chainNodes, run.Via(theta.Base, theta.Path[:k+1].Clone()))
			bd, berr := net.ChanBounds(from, to)
			if berr != nil {
				return 0, berr
			}
			e.g.AddEdge(curVertex, next, bd.Lower)
			e.g.AddEdge(next, curVertex, -bd.Upper)
			e.g.AddEdge(e.AuxVertex(to), next, 0)
		}
		curVertex = next
	}
	return curVertex, nil
}

// stepAt materializes the Step semantics of the query-graph edge (u, v, w),
// verifying that such an edge exists. The classification is forced by the
// vertex classes: edges between auxiliary vertices are horizon hops, edges
// into/out of the auxiliary band are the E'/E”/chain-anchor families, and
// the remaining node-to-node edges follow the basic-graph rules (same
// process: successor; otherwise the sign of the weight separates forward
// message edges from backward ones).
func (e *Extended) stepAt(u, v, w int) (Step, bool) {
	exists := false
	for _, ed := range e.g.Out(u) {
		if ed.To == v && ed.Weight == w {
			exists = true
			break
		}
	}
	if !exists {
		return Step{}, false
	}
	from, to := e.PointOf(u), e.PointOf(v)
	var kind StepKind
	switch {
	case from.Aux && to.Aux:
		kind = StepAuxHop
	case from.Aux && e.isChain(v):
		kind = StepAuxChain
	case from.Aux:
		kind = StepAuxExit
	case to.Aux:
		kind = StepAuxEnter
	case !e.isChain(u) && !e.isChain(v) && from.Node.Proc() == to.Node.Proc():
		kind = StepSucc
	case w > 0:
		kind = StepLower
	default:
		kind = StepUpper
	}
	return Step{Kind: kind, From: from, To: to, Weight: w}, true
}

// stepsOf reconstructs Step metadata for a vertex path of the query graph.
func (e *Extended) stepsOf(path []int, dist []int64) ([]Step, error) {
	steps := make([]Step, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		w := int(dist[v] - dist[u])
		st, ok := e.stepAt(u, v, w)
		if !ok {
			return nil, fmt.Errorf("bounds: missing edge metadata %d->%d (w=%d)", u, v, w)
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// KnowledgeWeight computes kw = max{ x : K_sigma(theta1 --x--> theta2) },
// the strongest timed precedence between theta1 and theta2 known at sigma
// (Theorem 4), as the longest constraint path from theta1 to theta2 in the
// query graph. It returns the realizing constraint path for witness
// extraction. known is false — with err == nil — when no bound is known at
// any x (no constraint path exists; the fast-run construction of Definition
// 24 can then delay theta1 arbitrarily past theta2).
//
// The query runs one SPFA pass over the graph's scratch buffers and
// reconstructs the path from its distances, so repeated queries on one
// Extended allocate only their result steps.
func (e *Extended) KnowledgeWeight(theta1, theta2 run.GeneralNode) (kw int, steps []Step, known bool, err error) {
	u, err := e.VertexOfGeneral(theta1)
	if err != nil {
		return 0, nil, false, err
	}
	v, err := e.VertexOfGeneral(theta2)
	if err != nil {
		return 0, nil, false, err
	}
	dist, err := e.g.LongestWith(&e.scratch, u)
	if err != nil {
		return 0, nil, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
	}
	path, ok, err := e.g.PathFrom(&e.scratch, dist, u, v)
	if err != nil {
		return 0, nil, false, err
	}
	if !ok {
		return 0, nil, false, nil
	}
	steps, err = e.stepsOf(path, dist)
	if err != nil {
		return 0, nil, false, err
	}
	return int(dist[v]), steps, true, nil
}

// Weight computes kw = max{ x : K_sigma(theta1 --x--> theta2) } without
// reconstructing the realizing constraint path: one SPFA pass over the
// scratch buffers, one distance lookup, no witness Steps. It is the
// weight-only fast path behind Knows and KnowsAt — boolean threshold
// queries never pay for witness materialization. KnowledgeWeight remains
// the witness-bearing variant for extraction consumers.
func (e *Extended) Weight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error) {
	u, err := e.VertexOfGeneral(theta1)
	if err != nil {
		return 0, false, err
	}
	v, err := e.VertexOfGeneral(theta2)
	if err != nil {
		return 0, false, err
	}
	dist, err := e.g.LongestWith(&e.scratch, u)
	if err != nil {
		return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
	}
	if dist[v] == graph.NegInf {
		return 0, false, nil
	}
	return int(dist[v]), true, nil
}

// Knows reports whether K_sigma(theta1 --x--> theta2) holds: whether sigma,
// in its current local state, knows that theta1 occurs at least x time units
// before theta2 in every indistinguishable run. It runs weight-only — the
// witness path a KnowledgeWeight call would materialize is never built.
func (e *Extended) Knows(theta1 run.GeneralNode, x int, theta2 run.GeneralNode) (bool, error) {
	kw, known, err := e.Weight(theta1, theta2)
	if err != nil {
		return false, err
	}
	return known && kw >= x, nil
}

// KnowsAt evaluates a whole threshold grid against one weight computation:
// holds[i] is set to Knows(theta1, xs[i], theta2). The knowledge operator is
// threshold-shaped (Theorem 4), so after the single SPFA every extra
// threshold is one comparison. holds must have at least len(xs) entries (a
// caller-owned buffer keeps the grid query allocation-free).
func (e *Extended) KnowsAt(theta1 run.GeneralNode, xs []int, theta2 run.GeneralNode, holds []bool) (kw int, known bool, err error) {
	kw, known, err = e.Weight(theta1, theta2)
	if err != nil {
		return 0, false, err
	}
	for i, x := range xs {
		holds[i] = known && kw >= x
	}
	return kw, known, nil
}
