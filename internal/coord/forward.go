package coord

import (
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/run"
)

const negInf = graph.NegInf

// graphForward builds the forward-only (asynchronous) constraint graph over
// a causal past: successor edges of weight 1 and message edges at their lower
// bounds. No upper-bound edges — this is precisely the information content
// of the happened-before relation plus per-hop minimum latencies.
func graphForward(r *run.Run, nodes []run.BasicNode, index map[run.BasicNode]int) *graph.Graph {
	net := r.Net()
	g := graph.New(len(nodes))
	for _, n := range nodes {
		if j, ok := index[n.Successor()]; ok {
			g.AddEdge(index[n], j, 1)
		}
	}
	for _, d := range r.Deliveries() {
		i, okFrom := index[d.From]
		j, okTo := index[d.To]
		if !okFrom || !okTo {
			continue
		}
		g.AddEdge(i, j, net.Lower(d.From.Proc, d.To.Proc))
	}
	return g
}
