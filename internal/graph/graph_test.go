package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLongestSimpleDAG(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3 with weights making the lower route heavier.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 5)
	dist, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[3] != 10 {
		t.Errorf("dist[3] = %d, want 10", dist[3])
	}
	w, path, ok, err := g.LongestPath(0, 3)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w != 10 {
		t.Errorf("weight = %d", w)
	}
	if len(path) != 3 || path[0] != 0 || path[1] != 2 || path[2] != 3 {
		t.Errorf("path = %v", path)
	}
}

func TestLongestUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	dist, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != NegInf {
		t.Errorf("dist[2] = %d, want NegInf", dist[2])
	}
	_, _, ok, err := g.LongestPath(0, 2)
	if err != nil || ok {
		t.Errorf("unreachable: ok=%v err=%v", ok, err)
	}
}

func TestNegativeCycleOK(t *testing.T) {
	// Negative cycles are fine (bounds graphs have L-U <= 0 cycles).
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, -5)
	g.AddEdge(1, 2, 1)
	dist, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 3 {
		t.Errorf("dist[2] = %d, want 3", dist[2])
	}
}

func TestPositiveCycleDetected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, -1) // cycle weight +1
	g.AddEdge(1, 2, 1)
	_, err := g.Longest(0)
	if !errors.Is(err, ErrPositiveCycle) {
		t.Errorf("got %v, want ErrPositiveCycle", err)
	}
}

func TestZeroCycleReconstruction(t *testing.T) {
	// Zero-weight cycle (L == U channel): reconstruction must not loop.
	g := New(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 0, -3) // zero cycle
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 2)
	w, path, ok, err := g.LongestPath(0, 3)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w != 7 {
		t.Errorf("weight = %d, want 7", w)
	}
	if path[0] != 0 || path[len(path)-1] != 3 {
		t.Errorf("path = %v", path)
	}
}

func TestLongestInto(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 5)
	dist, err := g.LongestInto(2)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 9 || dist[1] != 5 || dist[2] != 0 {
		t.Errorf("dist = %v", dist)
	}
}

func TestReachSet(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 3, 0) // isolated self-loop... not allowed by AddEdge? it is.
	set := g.ReachSet(2)
	want := []bool{true, true, true, false}
	for i, w := range want {
		if set[i] != w {
			t.Errorf("ReachSet[%d] = %v, want %v", i, set[i], w)
		}
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	id := g.AddVertex()
	if id != 2 || g.N() != 3 {
		t.Errorf("AddVertex = %d, N = %d", id, g.N())
	}
	g.AddEdge(0, id, 7)
	dist, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[id] != 7 {
		t.Errorf("dist[new] = %d", dist[id])
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-range edge")
		}
	}()
	New(2).AddEdge(0, 5, 1)
}

// TestLongestAgainstOracle cross-checks SPFA against plain Bellman-Ford
// (refLongest) on
// random graphs without positive cycles (all cycles forced <= 0 by using a
// topological base order with only non-positive back edges).
func TestLongestAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			var w int
			if u < v {
				w = rng.Intn(6) // forward edges: any non-negative weight
			} else {
				// Back edges more negative than any forward path can gain,
				// so every cycle has negative weight.
				w = -(5*n + 1 + rng.Intn(6))
			}
			g.AddEdge(u, v, w)
		}
		dist, err := g.Longest(0)
		if err != nil {
			return false
		}
		want, err := refLongest(g, 0, nil, false)
		if err != nil {
			return false
		}
		for i := range dist {
			if dist[i] != want[i] {
				return false
			}
		}
		// Path reconstruction telescopes correctly for every reachable dst.
		for dst := 0; dst < n; dst++ {
			if dist[dst] == NegInf {
				continue
			}
			w, path, ok, err := g.LongestPath(0, dst)
			if err != nil || !ok || w != dist[dst] {
				return false
			}
			if path[0] != 0 || path[len(path)-1] != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNewWithDegreesMatchesNew pins the presized construction: a graph
// built over exact degree tables answers every query identically to one
// built with plain New/AddEdge, and adding edges beyond the declared
// degrees (or fresh vertices) still works via append growth.
func TestNewWithDegreesMatchesNew(t *testing.T) {
	type edge struct{ u, v, w int }
	edges := []edge{{0, 1, 2}, {1, 3, 5}, {0, 2, 1}, {2, 3, 4}, {3, 4, -3}, {1, 2, 0}}
	n := 5
	out := make([]int32, n)
	in := make([]int32, n)
	for _, e := range edges {
		out[e.u]++
		in[e.v]++
	}
	plain, dense := New(n), NewWithDegrees(out, in)
	for _, e := range edges {
		plain.AddEdge(e.u, e.v, e.w)
		dense.AddEdge(e.u, e.v, e.w)
	}
	if plain.NumEdges() != dense.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", plain.NumEdges(), dense.NumEdges())
	}
	for u := 0; u < n; u++ {
		dp, err1 := plain.Longest(u)
		dd, err2 := dense.Longest(u)
		if err1 != nil || err2 != nil {
			t.Fatalf("Longest(%d): %v / %v", u, err1, err2)
		}
		for v := range dp {
			if dp[v] != dd[v] {
				t.Errorf("dist %d->%d differs: %d vs %d", u, v, dp[v], dd[v])
			}
		}
	}
	w1, p1, ok1, err1 := plain.LongestPath(0, 4)
	w2, p2, ok2, err2 := dense.LongestPath(0, 4)
	if err1 != nil || err2 != nil || !ok1 || !ok2 || w1 != w2 || len(p1) != len(p2) {
		t.Fatalf("LongestPath disagrees: (%d,%v,%v,%v) vs (%d,%v,%v,%v)", w1, p1, ok1, err1, w2, p2, ok2, err2)
	}
	// Overflow the declared degree of vertex 0 and grow a new vertex.
	dense.AddEdge(0, 4, 7)
	fresh := dense.AddVertex()
	dense.AddEdge(4, fresh, 1)
	d, err := dense.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if d[4] != 7 {
		t.Errorf("dist to 4 after overflow edge = %d, want 7", d[4])
	}
	if d[fresh] != 8 {
		t.Errorf("dist to fresh vertex = %d, want 8", d[fresh])
	}
}

func TestNewWithDegreesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched degree tables did not panic")
		}
	}()
	NewWithDegrees(make([]int32, 2), make([]int32, 3))
}
