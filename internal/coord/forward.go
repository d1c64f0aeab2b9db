package coord

import (
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/run"
)

const negInf = graph.NegInf

// graphForward builds the forward-only (asynchronous) constraint graph over
// a causal past: successor edges of weight 1 and message edges at their lower
// bounds. No upper-bound edges — this is precisely the information content
// of the happened-before relation plus per-hop minimum latencies. index maps
// the view's nodes to dense vertices.
func graphForward(ps *run.View, nodes []run.BasicNode, index map[run.BasicNode]int) *graph.Graph {
	net := ps.Net()
	g := graph.New(len(nodes))
	for i, n := range nodes {
		if j, ok := index[n.Successor()]; ok {
			g.AddEdge(i, j, 1)
		}
	}
	for _, d := range ps.Deliveries() {
		g.AddEdge(index[d.From], index[d.To], net.BoundsOf(d.Chan).Lower)
	}
	return g
}
