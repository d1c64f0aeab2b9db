package graph

import (
	"errors"
	"testing"
)

// shown spells out the visibility rule for the references: v is inside r
// iff it is an always-visible vertex or lies at or below its band's limit.
func shown(r *Restriction, v int) bool {
	return r.Idx[v] == AlwaysVisible || r.Idx[v] <= r.Limit[r.Band[v]]
}

// line builds the shared fixture: two bands of a "timeline" each (band 0:
// vertices 2,3,4; band 1: vertices 5,6,7) over two always-visible anchors
// (0 and 1), successor edges of weight 1 along each band and a cross edge
// 3 --5--> 6.
func line() (*Graph, *Restriction) {
	g := New(8)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(5, 6, 1)
	g.AddEdge(6, 7, 1)
	g.AddEdge(3, 6, 5)
	r := &Restriction{
		Band:  []int32{0, 1, 0, 0, 0, 1, 1, 1},
		Idx:   []int32{AlwaysVisible, AlwaysVisible, 0, 1, 2, 0, 1, 2},
		Limit: []int32{2, 2},
	}
	return g, r
}

// TestRestrictedMatchesUnrestricted: with every vertex inside the limits and
// no overlay, the restricted runs and the plain ones both give the
// Bellman–Ford reference distances of the whole graph, in both directions.
func TestRestrictedMatchesUnrestricted(t *testing.T) {
	g, r := line()
	var s Scratch
	for v := 0; v < g.N(); v++ {
		want, wantErr := refLongest(g, v, nil, false)
		got, err := g.LongestWith(&s, v)
		sameDist(t, "plain", got, err, want, wantErr)
		got, err = g.LongestRestricted(&s, v, r)
		sameDist(t, "restricted", got, err, want, wantErr)
		want, wantErr = refLongest(g, v, nil, true)
		got, err = g.LongestInto(v)
		sameDist(t, "plain into", got, err, want, wantErr)
		got, err = g.LongestIntoRestricted(&s, v, r)
		sameDist(t, "restricted into", got, err, want, wantErr)
	}
}

// TestRestrictedMasksPrefix: lowering a band's limit hides its suffix and
// every path through it.
func TestRestrictedMasksPrefix(t *testing.T) {
	g, r := line()
	r.Limit = []int32{1, 0} // band 0 up to vertex 3, band 1 up to vertex 5
	var s Scratch
	dist, err := g.LongestRestricted(&s, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if dist[3] != 1 {
		t.Fatalf("dist[3] = %d, want 1", dist[3])
	}
	for _, v := range []int{4, 6, 7} {
		if dist[v] != posInf {
			t.Fatalf("masked vertex %d got distance %d, want the mask sentinel", v, dist[v])
		}
	}
}

// TestRestrictedOverlayAndBoundary: overlay edges and the virtual boundary
// edge are relaxed exactly like standing edges, and a warm restart after the
// limit grows matches a fresh restricted run.
func TestRestrictedOverlayAndBoundary(t *testing.T) {
	g, r := line()
	r.Limit = []int32{1, 1}
	r.Overlay = make([][]Edge, 2)
	r.Overlay[0] = []Edge{{To: 5, Weight: 7}} // anchor 0 --7--> 5 (visible)
	r.BoundaryTo = []int32{0, 1}              // band boundaries point at their anchors
	r.BoundaryWeight = 1
	var s Scratch
	dist, err := g.LongestRestricted(&s, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// 2 ->1-> 3 (boundary of band 0) ->1-> anchor 0 ->7-> 5 ->1-> 6 (boundary
	// of band 1) ->1-> anchor 1.
	for v, want := range map[int]int64{3: 1, 0: 2, 5: 9, 6: 10, 1: 11} {
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
	if dist[4] != posInf || dist[7] != posInf {
		t.Fatalf("masked vertices reached: dist[4]=%d dist[7]=%d", dist[4], dist[7])
	}

	// Grow both limits: vertices 4 and 7 become visible, the boundary edges
	// move. Seeds: the newly visible edges' sources (3->4, 6->7) and the new
	// boundary vertices themselves.
	r.Limit = []int32{2, 2}
	warm, err := g.RelaxRestrictedFrom(&s, []int{3, 6, 4, 7}, []int{4, 7}, r)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Scratch
	fresh, err := g.LongestRestricted(&s2, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fresh {
		if warm[v] != fresh[v] {
			t.Fatalf("warm restart diverges at %d: %d vs %d", v, warm[v], fresh[v])
		}
	}
	if warm[0] != 3 {
		t.Fatalf("boundary edge did not move: dist[0] = %d, want 3", warm[0])
	}
}

// TestRestrictedPositiveCycle: a positive cycle inside the visible region is
// still detected; masked out, it is not.
func TestRestrictedPositiveCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 1, 1) // positive cycle 1<->2
	r := &Restriction{
		Band:  []int32{0, 0, 0, 0},
		Idx:   []int32{AlwaysVisible, 0, 1, 2},
		Limit: []int32{2},
	}
	var s Scratch
	if _, err := g.LongestRestricted(&s, 0, r); !errors.Is(err, ErrPositiveCycle) {
		t.Fatalf("got %v, want ErrPositiveCycle", err)
	}
	r.Limit[0] = 0 // hide the cycle
	if _, err := g.LongestRestricted(&s, 0, r); err != nil {
		t.Fatalf("masked cycle still reported: %v", err)
	}
}
