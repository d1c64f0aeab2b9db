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
	r.ROverlay = make([][]Edge, 8)
	r.ROverlay[5] = []Edge{{To: 0, Weight: 7}}
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
	r.ROverlay = make([][]Edge, 8)
	r.ROverlay[5] = []Edge{{To: 0, Weight: 7}}
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
	r.ROverlay = make([][]Edge, 8)
	r.ROverlay[5] = []Edge{{To: 0, Weight: 7}}
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
	r.ROverlay[5] = nil
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
