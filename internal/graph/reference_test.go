package graph

import (
	"math/rand"
	"testing"
)

// refEdges lists the edges a query under r relaxes, as plain (u, v, w)
// triples: the standing edges between visible vertices, the overlay edges
// and the virtual boundary edges. A nil r means the whole graph.
func refEdges(g *Graph, r *Restriction) [][3]int {
	visible := func(v int) bool { return r == nil || shown(r, v) }
	var out [][3]int
	for u := 0; u < g.N(); u++ {
		if !visible(u) {
			continue
		}
		for _, e := range g.Out(u) {
			if visible(e.To) {
				out = append(out, [3]int{u, e.To, e.Weight})
			}
		}
		if r == nil {
			continue
		}
		if u < len(r.Overlay) {
			for _, e := range r.Overlay[u] {
				if visible(e.To) {
					out = append(out, [3]int{u, e.To, e.Weight})
				}
			}
		}
		if r.BoundaryTo != nil && r.Idx[u] == r.Limit[r.Band[u]] {
			if to := int(r.BoundaryTo[r.Band[u]]); to >= 0 {
				out = append(out, [3]int{u, to, r.BoundaryWeight})
			}
		}
	}
	return out
}

// refLongest is the test-only reference for every longest-path entry point
// of the package: plain Bellman–Ford over the explicit edge list refEdges
// derives, sharing no code with the SPFA loops. into computes distances
// INTO src over the transposed list. Masked vertices report the posInf
// sentinel, as the restricted queries do, and a positive cycle reachable
// from src (in the queried direction) is ErrPositiveCycle.
func refLongest(g *Graph, src int, r *Restriction, into bool) ([]int64, error) {
	n := g.N()
	edges := refEdges(g, r)
	if into {
		for i := range edges {
			edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
		}
	}
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = NegInf
		if r != nil && !shown(r, v) {
			dist[v] = posInf
		}
	}
	dist[src] = 0
	for round := 0; round <= n; round++ {
		changed := false
		for _, e := range edges {
			if du := dist[e[0]]; du != NegInf && du+int64(e[2]) > dist[e[1]] {
				dist[e[1]] = du + int64(e[2])
				changed = true
			}
		}
		if !changed {
			return dist, nil
		}
	}
	return nil, ErrPositiveCycle
}

// open returns the all-visible restriction over n vertices: no band ever has
// a boundary, no overlay, so restricted queries under it are plain ones.
func open(n int) *Restriction {
	r := &Restriction{
		Band: make([]int32, n), Idx: make([]int32, n), Limit: []int32{-1},
	}
	for v := 0; v < n; v++ {
		r.Idx[v] = AlwaysVisible
	}
	return r
}

// sameDist fails the test where got and want disagree (or only one of them
// erred).
func sameDist(t *testing.T, what string, got []int64, gotErr error, want []int64, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, reference err %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d] = %d, reference %d", what, v, got[v], want[v])
		}
	}
}

// randomRestricted builds a random graph over nb bands of timelines plus nb
// always-visible anchors at ids 0..nb-1 (the bounds engines' layout), with
// random limits, a random overlay out of the anchors (mirrored in ROverlay)
// and boundary edges into them. Negative back edges keep most — not all —
// instances free of positive cycles, so both outcomes are compared.
func randomRestricted(rng *rand.Rand) (*Graph, *Restriction) {
	nb := 1 + rng.Intn(3)
	r := &Restriction{BoundaryWeight: 1}
	for b := 0; b < nb; b++ {
		r.Band = append(r.Band, int32(b))
		r.Idx = append(r.Idx, AlwaysVisible)
		r.BoundaryTo = append(r.BoundaryTo, int32(b))
	}
	for b := 0; b < nb; b++ {
		for k := 0; k < 1+rng.Intn(4); k++ {
			r.Band = append(r.Band, int32(b))
			r.Idx = append(r.Idx, int32(k))
		}
	}
	n := len(r.Band)
	g := New(n)
	for v := nb + 1; v < n; v++ {
		if r.Band[v] == r.Band[v-1] {
			// Successor edges: they dominate a boundary edge the frontier
			// moved past, as in the bounds graphs.
			g.AddEdge(v-1, v, 1)
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := rng.Intn(5)
		if u > v {
			w = -(4*n + rng.Intn(4))
		}
		g.AddEdge(u, v, w)
	}
	r.Overlay = make([][]Edge, nb)
	r.ROverlay = NewMirror(nb)
	for q := 0; q < nb; q++ {
		if rng.Intn(2) == 0 {
			to := nb + rng.Intn(n-nb)
			w := -rng.Intn(6)
			r.Overlay[q] = append(r.Overlay[q], Edge{To: to, Weight: w})
			r.ROverlay.Add(to, q, w)
		}
	}
	setLimits(r, rng, nb)
	return g, r
}

// setLimits picks a random limit per band (-1: the band has not entered
// the frontier) and derives the boundary vertices from it.
func setLimits(r *Restriction, rng *rand.Rand, nb int) {
	r.Limit = make([]int32, nb)
	for b := range r.Limit {
		r.Limit[b] = -1
	}
	growLimits(r, rng)
	r.BoundaryFrom = make([]int32, nb)
	setBoundaryFrom(r)
}

// growLimits advances every band's limit by a random step, never past the
// band's last vertex: like an agent's frontier, a band that has entered
// keeps a boundary vertex.
func growLimits(r *Restriction, rng *rand.Rand) {
	for b := range r.Limit {
		last := int32(-1)
		for v := range r.Band {
			if int(r.Band[v]) == b && r.Idx[v] != AlwaysVisible && r.Idx[v] > last {
				last = r.Idx[v]
			}
		}
		r.Limit[b] = min(r.Limit[b]+int32(rng.Intn(3)), last)
	}
}

// setBoundaryFrom recomputes, per band, the boundary vertex the reverse
// queries consult from the current limits.
func setBoundaryFrom(r *Restriction) {
	for b := range r.BoundaryFrom {
		r.BoundaryFrom[b] = -1
	}
	for v := range r.Band {
		if r.Idx[v] != AlwaysVisible && r.Idx[v] == r.Limit[r.Band[v]] {
			r.BoundaryFrom[r.Band[v]] = int32(v)
		}
	}
}

// TestRestrictedMatchesReference pins both restricted directions, cold and
// warm, to the Bellman–Ford reference on random restricted graphs: every
// visible source and destination, then again after the limits grow and
// fresh edges land, through warm restarts seeded the way the bounds engines
// seed them: the tails (forward) or heads (reverse) of every edge that
// became visible, the moved boundary edges included.
func TestRestrictedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		g, r := randomRestricted(rng)
		n := g.N()
		var fwd, rev Scratch
		for v := 0; v < n; v++ {
			if !shown(r, v) {
				continue
			}
			got, err := g.LongestRestricted(&fwd, v, r)
			want, wantErr := refLongest(g, v, r, false)
			sameDist(t, "forward", got, err, want, wantErr)
			got, err = g.LongestIntoRestricted(&rev, v, r)
			want, wantErr = refLongest(g, v, r, true)
			sameDist(t, "reverse", got, err, want, wantErr)
		}

		// Warm restarts after growth: the last source/destination stays.
		src := n - 1
		for !shown(r, src) {
			src--
		}
		if _, err := g.LongestRestricted(&fwd, src, r); err != nil {
			continue
		}
		if _, err := g.LongestIntoRestricted(&rev, src, r); err != nil {
			continue
		}
		wasVisible := make([]bool, n)
		for v := range wasVisible {
			wasVisible[v] = shown(r, v)
		}
		before := make(map[[3]int]int)
		for _, e := range refEdges(g, r) {
			before[e]++
		}
		growLimits(r, rng)
		setBoundaryFrom(r)
		for i := 0; i < 1+rng.Intn(3); i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(u, v, -(4*n + rng.Intn(4)))
			}
		}
		// Seeds per the warm-restart contracts: the tail (forward) and the
		// head (reverse) of every edge that became visible.
		var fseeds, rseeds, admitted []int
		for _, e := range refEdges(g, r) {
			if before[e] > 0 {
				before[e]--
				continue
			}
			fseeds = append(fseeds, e[0])
			rseeds = append(rseeds, e[1])
		}
		for v := range wasVisible {
			if shown(r, v) && !wasVisible[v] {
				admitted = append(admitted, v)
			}
		}
		got, err := g.RelaxRestrictedFrom(&fwd, fseeds, admitted, r)
		want, wantErr := refLongest(g, src, r, false)
		sameDist(t, "warm forward", got, err, want, wantErr)
		got, err = g.RelaxReverseRestrictedFrom(&rev, rseeds, admitted, nil, r)
		want, wantErr = refLongest(g, src, r, true)
		sameDist(t, "warm reverse", got, err, want, wantErr)
	}
}
