package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestLongestIntoRestrictedMatchesForward: for every visible source u, the
// reverse restricted distances into dst equal the forward restricted
// distance from u to dst.
func TestLongestIntoRestrictedMatchesForward(t *testing.T) {
	g, r := line()
	r.Overlay = make([][]Edge, 2)
	r.Overlay[0] = []Edge{{To: 5, Weight: 7}}
	r.ROverlay = NewMirror(1)
	r.ROverlay.Add(5, 0, 7)
	r.BoundaryTo = []int32{0, 1}
	r.BoundaryWeight = 1
	r.BoundaryFrom = []int32{4, 7} // vertices at the current limits
	var fwd, rev Scratch
	for dst := 0; dst < 8; dst++ {
		into, err := g.LongestIntoRestricted(&rev, dst, r)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]int64(nil), into...)
		want, err := refLongest(g, dst, r, true)
		sameDist(t, fmt.Sprintf("into %d", dst), got, nil, want, err)
		for src := 0; src < 8; src++ {
			from, err := g.LongestRestricted(&fwd, src, r)
			if err != nil {
				t.Fatal(err)
			}
			if from[dst] != got[src] {
				t.Fatalf("dst %d src %d: forward %d reverse %d", dst, src, from[dst], got[src])
			}
		}
	}
}

// TestRelaxReverseRestrictedWarmMatchesFresh replays the growth scenario of
// TestRestrictedOverlayAndBoundary backwards: after limits grow, a warm
// reverse restart seeded with the HEADS of the newly visible edges (and the
// anchors whose boundary edge moved) matches a fresh reverse run.
func TestRelaxReverseRestrictedWarmMatchesFresh(t *testing.T) {
	g, r := line()
	r.Limit = []int32{1, 1}
	r.Overlay = make([][]Edge, 2)
	r.Overlay[0] = []Edge{{To: 5, Weight: 7}}
	r.ROverlay = NewMirror(1)
	r.ROverlay.Add(5, 0, 7)
	r.BoundaryTo = []int32{0, 1}
	r.BoundaryWeight = 1
	r.BoundaryFrom = []int32{3, 6}
	var s Scratch
	if _, err := g.LongestIntoRestricted(&s, 1, r); err != nil {
		t.Fatal(err)
	}
	// Grow both limits: vertices 4 and 7 become visible, the boundary edges
	// move. Reverse seeds are edge HEADS: the new successor edges' heads
	// (4, 7) and the anchors whose moved boundary edge now starts there
	// (0, 1).
	r.Limit = []int32{2, 2}
	r.BoundaryFrom = []int32{4, 7}
	warm, err := g.RelaxReverseRestrictedFrom(&s, []int{4, 7, 0, 1}, []int{4, 7}, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Scratch
	fresh, err := g.LongestIntoRestricted(&s2, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fresh {
		if warm[v] != fresh[v] {
			t.Fatalf("warm reverse restart diverges at %d: %d vs %d", v, warm[v], fresh[v])
		}
	}
}

// TestRelaxReverseRefreshAfterRemoval: removing an out-edge of an anchor can
// LOWER reverse distances of the anchor and everything whose derivation
// routed through it. Refreshing that whole family — including vertices that
// re-derive through each other, as the auxiliary band does through its E”'
// edges — converges to the new, lower fixpoint exactly.
func TestRelaxReverseRefreshAfterRemoval(t *testing.T) {
	g, r := line()
	r.Overlay = make([][]Edge, 2)
	r.Overlay[0] = []Edge{{To: 5, Weight: 7}}
	r.ROverlay = NewMirror(1)
	r.ROverlay.Add(5, 0, 7)
	r.BoundaryTo = []int32{0, 1}
	r.BoundaryWeight = 1
	r.BoundaryFrom = []int32{4, 7}
	var s Scratch
	dist, err := g.LongestIntoRestricted(&s, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int64(nil), dist...) // dist aliases s and is reused below
	// 2 reaches 1 through the overlay edge 0 --7--> 5.
	if before[2] == NegInf {
		t.Fatal("fixture: 2 should reach 1")
	}
	// Retire the overlay edge. The anchor loses its only exit, and band 0
	// (2, 3, 4), whose paths to 1 ran through the anchor, regresses with it
	// except where the cross edge 3 --5--> 6 survives: the refresh list is
	// the whole affected family.
	r.Overlay[0] = nil
	if !r.ROverlay.Remove(5, 0, 7) {
		t.Fatal("mirror lost the overlay entry")
	}
	warm, err := g.RelaxReverseRestrictedFrom(&s, nil, nil, []int{0, 2, 3, 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Scratch
	fresh, err := g.LongestIntoRestricted(&s2, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fresh {
		if warm[v] != fresh[v] {
			t.Fatalf("refresh diverges at %d: %d vs %d", v, warm[v], fresh[v])
		}
	}
	if warm[0] != NegInf {
		t.Fatalf("anchor 0 should regress to unreachable after retirement: %d -> %d", before[0], warm[0])
	}
	if warm[3] == NegInf || warm[3] >= before[3] {
		t.Fatalf("vertex 3 should regress to the cross-edge path: %d -> %d", before[3], warm[3])
	}
}

// TestRelaxReverseFromMatchesFresh: the warm reverse restart over an
// all-visible restriction and randomized growth sequences matches the
// Bellman–Ford reference at every step.
func TestRelaxReverseFromMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(10)
		g := New(n)
		var s Scratch
		dst := rng.Intn(n)
		if _, err := g.LongestIntoRestricted(&s, dst, open(n)); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			var seeds []int
			for e := 0; e < 1+rng.Intn(3); e++ {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				// Negative-leaning weights keep positive cycles rare.
				g.AddEdge(u, v, rng.Intn(7)-4)
				seeds = append(seeds, v)
			}
			if rng.Intn(3) == 0 {
				g.AddVertex()
			}
			warm, warmErr := g.RelaxReverseRestrictedFrom(&s, seeds, nil, nil, open(g.N()))
			want, wantErr := refLongest(g, dst, nil, true)
			sameDist(t, fmt.Sprintf("trial %d step %d", trial, step), warm, warmErr, want, wantErr)
			if warmErr != nil {
				break // inconsistent graph: recompute-from-scratch territory
			}
		}
	}
}

// TestRelaxReverseFromRefreshUnrestricted: removal + refresh under an
// all-visible restriction re-derives tails from their surviving out-edges.
func TestRelaxReverseFromRefreshUnrestricted(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 9)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 3, 1)
	var s Scratch
	dist, err := g.LongestIntoRestricted(&s, 3, open(4))
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 10 {
		t.Fatalf("dist[0] = %d, want 10", dist[0])
	}
	if !g.RemoveEdge(0, 2, 9) {
		t.Fatal("edge not found")
	}
	warm, err := g.RelaxReverseRestrictedFrom(&s, nil, nil, []int{0}, open(4))
	if err != nil {
		t.Fatal(err)
	}
	if warm[0] != 3 {
		t.Fatalf("after removal dist[0] = %d, want 3", warm[0])
	}
}

// TestRelaxReverseFromValidation pins the reverse warm restart's error
// contract: no prior run, a shrunken graph, out-of-range seeds, admitted
// and refresh vertices, invisible refresh vertices and an out-of-range or
// masked destination are all errors.
func TestRelaxReverseFromValidation(t *testing.T) {
	g := New(3)
	r := open(3)
	var s Scratch
	if _, err := g.RelaxReverseRestrictedFrom(&s, nil, nil, nil, r); err == nil {
		t.Fatal("no prior computation: want error")
	}
	if _, err := g.LongestIntoRestricted(&s, 0, r); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RelaxReverseRestrictedFrom(&s, []int{7}, nil, nil, r); err == nil {
		t.Fatal("out-of-range seed: want error")
	}
	if _, err := g.RelaxReverseRestrictedFrom(&s, nil, []int{7}, nil, r); err == nil {
		t.Fatal("out-of-range admitted vertex: want error")
	}
	if _, err := g.RelaxReverseRestrictedFrom(&s, nil, nil, []int{-1}, r); err == nil {
		t.Fatal("out-of-range refresh: want error")
	}
	r.Idx[2] = 0 // above band 0's limit of -1: vertex 2 is masked
	if _, err := g.RelaxReverseRestrictedFrom(&s, nil, nil, []int{2}, r); err == nil {
		t.Fatal("invisible refresh vertex: want error")
	}
	if _, err := g.LongestIntoRestricted(&s, 2, r); err == nil {
		t.Fatal("masked destination: want error")
	}
	if _, err := g.LongestIntoRestricted(&s, 9, r); err == nil {
		t.Fatal("out-of-range destination: want error")
	}
	if _, err := New(2).RelaxReverseRestrictedFrom(&s, nil, nil, nil, open(2)); err == nil {
		t.Fatal("graph shrank below the scratch: want error")
	}
}

// TestReverseRestrictedPositiveCycle: a visible positive cycle reachable
// backwards from the destination is detected; masked out, it is not.
func TestReverseRestrictedPositiveCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 1, 1) // positive cycle 1<->2
	g.AddEdge(2, 3, 1)
	r := &Restriction{
		Band:  []int32{0, 0, 0, 0},
		Idx:   []int32{AlwaysVisible, 0, 1, 2},
		Limit: []int32{2},
	}
	var s Scratch
	if _, err := g.LongestIntoRestricted(&s, 3, r); !errors.Is(err, ErrPositiveCycle) {
		t.Fatalf("got %v, want ErrPositiveCycle", err)
	}
	r.Limit[0] = 0 // hide the cycle (and the destination's band suffix)
	if _, err := g.LongestIntoRestricted(&s, 0, r); err != nil {
		t.Fatalf("masked cycle still reported: %v", err)
	}
}

// TestRelaxReverseRefreshMatchesReference pins the in-place band refresh
// to a fresh run and to the Bellman–Ford reference on random restricted
// graphs. Each instance gets extra overlay entries out of its anchors, a
// full reverse run into a random visible destination, then retires a random
// subset of the overlay entries (through the mirror as well as Overlay),
// grows the limits and warm-restarts the way the bounds engines do: seeds
// are the heads of the edges that became visible, and refresh is the anchor
// band. Unlike in a bounds graph, where node-vertex reverse distances are
// knowledge weights and persist, a node vertex of a random graph can lose
// its path through a retired entry, so refresh also lists every vertex with
// a path into a retiring anchor, as the refresh contract demands.
// Positive-cycle outcomes are compared too, and the fixture must include
// instances whose distances a retirement actually lowered, which a warm
// restart without the refresh gets wrong.
func TestRelaxReverseRefreshMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var finite, lowered, cycles int
	for trial := 0; trial < 4000; trial++ {
		g, r := randomRestricted(rng)
		n, nb := g.N(), len(r.Limit)
		for q := 0; q < nb; q++ {
			for to := nb; to < n; to++ {
				if rng.Intn(2) == 0 && !hasOverlay(r, q, to) {
					w := -n - rng.Intn(n)
					r.Overlay[q] = append(r.Overlay[q], Edge{To: to, Weight: w})
					r.ROverlay.Add(to, q, w)
				}
			}
		}
		var visible []int
		for v := 0; v < n; v++ {
			if shown(r, v) {
				visible = append(visible, v)
			}
		}
		dst := visible[rng.Intn(len(visible))]
		var s Scratch
		dist, err := g.LongestIntoRestricted(&s, dst, r)
		want, wantErr := refLongest(g, dst, r, true)
		sameDist(t, fmt.Sprintf("trial %d full", trial), dist, err, want, wantErr)
		if err != nil {
			continue // no fixpoint to resume from
		}
		old := append([]int64(nil), dist...)
		before := make(map[[3]int]int)
		for _, e := range refEdges(g, r) {
			before[e]++
		}

		// Retire a random subset of the overlay entries; their anchors and
		// every visible vertex with a path into one of them may regress.
		retired := make([]bool, nb)
		for q := 0; q < nb; q++ {
			es := r.Overlay[q]
			for i := 0; i < len(es); {
				if rng.Intn(2) == 0 {
					i++
					continue
				}
				if !r.ROverlay.Remove(es[i].To, q, es[i].Weight) {
					t.Fatalf("trial %d: mirror lost the entry %d -> %d", trial, q, es[i].To)
				}
				es[i] = es[len(es)-1]
				es = es[:len(es)-1]
				retired[q] = true
			}
			r.Overlay[q] = es
		}
		regress := ancestors(g, r, retired)
		var refresh []int
		for v := 0; v < n; v++ {
			if v != dst && (v < nb || regress[v]) {
				refresh = append(refresh, v)
			}
		}

		wasVisible := make([]bool, n)
		for v := range wasVisible {
			wasVisible[v] = shown(r, v)
		}
		growLimits(r, rng)
		setBoundaryFrom(r)
		var seeds, admitted []int
		for _, e := range refEdges(g, r) {
			if before[e] > 0 {
				before[e]--
				continue
			}
			seeds = append(seeds, e[1])
		}
		for v := range wasVisible {
			if shown(r, v) && !wasVisible[v] {
				admitted = append(admitted, v)
			}
		}

		want, wantErr = refLongest(g, dst, r, true)
		var fresh Scratch
		fd, fdErr := g.LongestIntoRestricted(&fresh, dst, r)
		sameDist(t, fmt.Sprintf("trial %d fresh", trial), fd, fdErr, want, wantErr)
		got, err := g.RelaxReverseRestrictedFrom(&s, seeds, admitted, refresh, r)
		sameDist(t, fmt.Sprintf("trial %d warm", trial), got, err, want, wantErr)
		if wantErr != nil {
			cycles++
			continue
		}
		finite++
		for v := range old {
			if wasVisible[v] && want[v] < old[v] {
				lowered++
				break
			}
		}
	}
	t.Logf("warm restarts: %d finite (%d lowered by a retirement), %d positive cycles", finite, lowered, cycles)
	if finite < 1000 || lowered < 200 || cycles < 50 {
		t.Fatalf("fixture too thin: %d finite (%d lowered), %d cycles", finite, lowered, cycles)
	}
}

// hasOverlay reports whether anchor q already has an overlay entry into to.
func hasOverlay(r *Restriction, q, to int) bool {
	for _, e := range r.Overlay[q] {
		if e.To == to {
			return true
		}
	}
	return false
}

// ancestors marks every visible vertex with a path, over the edges a query
// under r relaxes, into a marked anchor (the anchors themselves included).
func ancestors(g *Graph, r *Restriction, marked []bool) []bool {
	reach := make([]bool, g.N())
	copy(reach, marked)
	edges := refEdges(g, r)
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if reach[e[1]] && !reach[e[0]] {
				reach[e[0]] = true
				changed = true
			}
		}
	}
	return reach
}
