package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSafeGraph builds a random graph with no positive cycles (forward
// edges non-negative, back edges more negative than any forward gain) and
// returns it with its edge list.
func randomSafeGraph(rng *rand.Rand, n, m int) (*Graph, [][3]int) {
	g := New(n)
	var edges [][3]int
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		var w int
		if u < v {
			w = rng.Intn(6)
		} else {
			w = -(5*n + 1 + rng.Intn(6))
		}
		g.AddEdge(u, v, w)
		edges = append(edges, [3]int{u, v, w})
	}
	return g, edges
}

// TestScratchReuseMatchesFresh: one Scratch reused across many queries (on
// many graphs, growing and shrinking the covered range) answers every query
// exactly as a fresh computation does.
func TestScratchReuseMatchesFresh(t *testing.T) {
	s := new(Scratch)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		g, _ := randomSafeGraph(rng, n, 3*n)
		src := rng.Intn(n)
		want, err1 := refLongest(g, src, nil, false)
		got, err2 := g.LongestWith(s, src)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %d, reference %d", trial, v, got[v], want[v])
			}
		}
		// The same scratch serves restricted queries in between.
		wi, err1 := g.LongestInto(src)
		gi, err2 := g.LongestIntoRestricted(s, src, open(n))
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d (into): %v / %v", trial, err1, err2)
		}
		ri, _ := refLongest(g, src, nil, true)
		for v := range wi {
			if gi[v] != wi[v] || wi[v] != ri[v] {
				t.Fatalf("trial %d: into-dist[%d] = %d / %d, reference %d", trial, v, wi[v], gi[v], ri[v])
			}
		}
		for dst := 0; dst < n; dst++ {
			w1, p1, ok1, e1 := g.LongestPath(src, dst)
			w2, p2, ok2, e2 := g.LongestPathWith(s, src, dst)
			if (e1 == nil) != (e2 == nil) || ok1 != ok2 || w1 != w2 {
				t.Fatalf("trial %d: LongestPath(%d,%d) disagrees", trial, src, dst)
			}
			if ok1 {
				if len(p1) != len(p2) {
					t.Fatalf("trial %d: path lengths differ: %v vs %v", trial, p1, p2)
				}
				for i := range p1 {
					if p1[i] != p2[i] {
						t.Fatalf("trial %d: paths differ: %v vs %v", trial, p1, p2)
					}
				}
			}
		}
	}
}

// TestScratchDetectsPositiveCycle: cycle detection survives buffer reuse
// (stale relaxation counters must not mask or fake a cycle).
func TestScratchDetectsPositiveCycle(t *testing.T) {
	s := new(Scratch)
	good := New(3)
	good.AddEdge(0, 1, 5)
	good.AddEdge(1, 2, 5)
	if _, err := good.LongestWith(s, 0); err != nil {
		t.Fatal(err)
	}
	bad := New(3)
	bad.AddEdge(0, 1, 1)
	bad.AddEdge(1, 0, 1)
	if _, err := bad.LongestWith(s, 0); err != ErrPositiveCycle {
		t.Fatalf("got %v, want ErrPositiveCycle", err)
	}
	// And the scratch is still usable afterwards.
	d, err := good.LongestWith(s, 0)
	if err != nil || d[2] != 10 {
		t.Fatalf("post-cycle reuse: dist=%v err=%v", d, err)
	}
}

// TestRelaxFromMatchesFresh is the forward warm-restart contract: growing a
// graph by random monotone batches (new vertices and edges) and re-relaxing
// under an all-visible restriction from only the new edges' sources gives
// exactly the Bellman–Ford reference distances after every batch.
func TestRelaxFromMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g, _ := randomSafeGraph(rng, n, 2*n)
		src := rng.Intn(n)
		s := new(Scratch)
		if _, err := g.LongestRestricted(s, src, open(n)); err != nil {
			return false
		}
		for batch := 0; batch < 4; batch++ {
			var seeds []int
			// Sometimes grow the vertex set.
			for grow := rng.Intn(3); grow > 0; grow-- {
				g.AddVertex()
			}
			nn := g.N()
			for i := 0; i < 1+rng.Intn(4); i++ {
				u := rng.Intn(nn)
				v := rng.Intn(nn)
				if u == v {
					continue
				}
				// More negative than the total positive weight the base
				// graph can carry, so every cycle through a new edge stays
				// negative regardless of the existing structure.
				w := -(200 + rng.Intn(8))
				g.AddEdge(u, v, w)
				seeds = append(seeds, u)
			}
			got, err := g.RelaxRestrictedFrom(s, seeds, nil, open(nn))
			if err != nil {
				return false
			}
			want, err := refLongest(g, src, nil, false)
			if err != nil {
				return false
			}
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRelaxFromRequiresPriorRun pins the forward warm restart's error
// contract: no prior run, a shrunken graph, out-of-range seeds and invalid
// admitted vertices are all errors.
func TestRelaxFromRequiresPriorRun(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	r := open(3)
	s := new(Scratch)
	if _, err := g.RelaxRestrictedFrom(s, []int{0}, nil, r); err == nil {
		t.Error("warm restart accepted an empty scratch")
	}
	if _, err := g.LongestRestricted(s, 0, r); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RelaxRestrictedFrom(s, []int{3}, nil, r); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := g.RelaxRestrictedFrom(s, nil, []int{-1}, r); err == nil {
		t.Error("out-of-range admitted vertex accepted")
	}
	r.Idx[2] = 0 // above band 0's limit of -1: vertex 2 is masked
	if _, err := g.RelaxRestrictedFrom(s, nil, []int{2}, r); err == nil {
		t.Error("invisible admitted vertex accepted")
	}
	if _, err := New(2).RelaxRestrictedFrom(s, nil, nil, open(2)); err == nil {
		t.Error("warm restart accepted a graph that shrank below the scratch")
	}
}

// TestRemoveEdge: removal deletes exactly one occurrence from both
// adjacency directions and longest paths reroute accordingly.
func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 1, 3) // parallel, lighter
	g.AddEdge(1, 2, 1)
	if !g.RemoveEdge(0, 1, 10) {
		t.Fatal("edge (0,1,10) not found")
	}
	if g.RemoveEdge(0, 1, 10) {
		t.Fatal("edge (0,1,10) removed twice")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	d, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if d[2] != 4 {
		t.Errorf("dist to 2 after removal = %d, want 4 via the parallel edge", d[2])
	}
	// Reverse adjacency shrank in step.
	if len(g.In(1)) != 1 {
		t.Errorf("in-degree of 1 = %d, want 1", len(g.In(1)))
	}
	if g.RemoveEdge(0, 2, 1) {
		t.Error("nonexistent edge reported removed")
	}
}

// TestPopVertexRollback: the AddVertex/AddEdge/RemoveEdge/PopVertex cycle
// used for speculative query vertices restores the graph exactly.
func TestPopVertexRollback(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	before, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	eta := g.AddVertex()
	g.AddEdge(1, eta, 5)
	g.AddEdge(eta, 1, -5)
	g.RemoveEdge(eta, 1, -5)
	g.RemoveEdge(1, eta, 5)
	g.PopVertex()
	if g.N() != 3 || g.NumEdges() != 2 {
		t.Fatalf("rollback left N=%d edges=%d", g.N(), g.NumEdges())
	}
	after, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range before {
		if before[v] != after[v] {
			t.Errorf("dist[%d] changed across rollback: %d vs %d", v, before[v], after[v])
		}
	}
}

func TestPopVertexPanicsOnNonIsolated(t *testing.T) {
	g := New(1)
	eta := g.AddVertex()
	g.AddEdge(0, eta, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic popping a wired vertex")
		}
	}()
	g.PopVertex()
}

// TestRingQueueChurn forces heavy re-queueing (long negative chains with a
// shortcut relaxed late) so the ring wraps many times; the dequeue head
// must never overtake pending entries.
func TestRingQueueChurn(t *testing.T) {
	const n = 200
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	// Shortcuts from 0 deep into the chain with increasing weights: each
	// relaxation re-floods the suffix.
	for i := 2; i < n; i += 3 {
		g.AddEdge(0, i, i)
	}
	dist, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refLongest(g, 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range dist {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}
