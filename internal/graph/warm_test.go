package graph

import (
	"errors"
	"strings"
	"testing"
)

// TestSeedPathLenRestartsAtZero pins the half of the Scratch invariant that
// lets runs skip clearing path lengths: a seed's count restarts at zero when
// it is queued, so a count left by an earlier, deeper run can never add to
// a chain this run improves and fake a positive cycle.
func TestSeedPathLenRestartsAtZero(t *testing.T) {
	const k = 20
	t.Run("refresh warm restart", func(t *testing.T) {
		// Toward d = 0: the band a_k -> ... -> a_1 -> d and h -> a_k, so the
		// prior run reaches h at depth k+1. The cycle a_1 -> h -> a_k ->
		// ... -> a_1 has weight zero.
		const d, h = 0, 1
		a := func(i int) int { return 1 + i }
		g := New(k + 2)
		for i := 2; i <= k; i++ {
			g.AddEdge(a(i), a(i-1), 0)
		}
		g.AddEdge(a(1), d, 0)
		g.AddEdge(h, a(k), 0)
		g.AddEdge(a(1), h, 0)
		r := open(g.N())
		var s Scratch
		if _, err := g.LongestIntoRestricted(&s, d, r); err != nil {
			t.Fatal(err)
		}
		if s.pathLen[h] != k+1 {
			t.Fatalf("fixture: h at depth %d, want %d", s.pathLen[h], k+1)
		}
		// h gains a direct edge into d (same distance) and the band loses
		// its exit, so the band is refreshed. It re-derives through the
		// refresh head h: a chain of k improvements starting at the tail
		// of the prior run's deepest path.
		g.AddEdge(h, d, 0)
		g.RemoveEdge(a(1), d, 0)
		refresh := make([]int, 0, k)
		for i := 1; i <= k; i++ {
			refresh = append(refresh, a(i))
		}
		warm, err := g.RelaxReverseRestrictedFrom(&s, []int{d}, nil, refresh, r)
		want, wantErr := refLongest(g, d, r, true)
		sameDist(t, "warm restart", warm, err, want, wantErr)
	})
	t.Run("full run from the tail", func(t *testing.T) {
		// A two-way chain of zero edges: the run from 0 leaves n-1 at depth
		// n-1, and the run from n-1 then improves the whole chain back.
		g := New(k)
		for i := 0; i+1 < k; i++ {
			g.AddEdge(i, i+1, 0)
			g.AddEdge(i+1, i, 0)
		}
		r := open(k)
		var s Scratch
		if _, err := g.LongestRestricted(&s, 0, r); err != nil {
			t.Fatal(err)
		}
		got, err := g.LongestRestricted(&s, k-1, r)
		want, wantErr := refLongest(g, k-1, r, false)
		sameDist(t, "run from the tail", got, err, want, wantErr)
	})
}

// TestScratchColdAfterPositiveCycle pins the other half: a run stopped by
// ErrPositiveCycle clears the queue flags it leaves behind and leaves the
// scratch cold. A warm restart straight after it is refused, and full runs
// with warm restarts on the reused scratch match a fresh scratch exactly.
func TestScratchColdAfterPositiveCycle(t *testing.T) {
	// From 0: 0 -> 1, the positive cycle 1 <-> 2, and both cycle vertices
	// fanning out to 3..n-1. With n odd the cycle is caught while the fan
	// vertices are still queued.
	const n = 9
	var bad [][3]int
	bad = append(bad, [3]int{0, 1, 1})
	for _, c := range [][2]int{{1, 2}, {2, 1}} {
		bad = append(bad, [3]int{c[0], c[1], 1})
		for j := 3; j < n; j++ {
			bad = append(bad, [3]int{c[0], j, 0})
		}
	}
	build := func(edges [][3]int, into bool) *Graph {
		g := New(n)
		for _, e := range edges {
			if into {
				g.AddEdge(e[1], e[0], e[2])
			} else {
				g.AddEdge(e[0], e[1], e[2])
			}
		}
		return g
	}
	// The legal graph every vertex of the bad run lies on: a chain from 0
	// (into n-1 for the reverse run) that the warm restarts then extend.
	good := func() *Graph {
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1, 1)
		}
		return g
	}
	checkCold := func(t *testing.T, s *Scratch, relax func() error) {
		t.Helper()
		for v, q := range s.inQueue {
			if q {
				t.Fatalf("vertex %d still flagged as queued after the cycle", v)
			}
		}
		if err := relax(); err == nil || !strings.Contains(err.Error(), "without a prior computation") {
			t.Fatalf("warm restart after the cycle: got %v, want the no-prior-computation error", err)
		}
	}
	r := open(n)

	t.Run("forward", func(t *testing.T) {
		var s Scratch
		if _, err := build(bad, false).LongestRestricted(&s, 0, r); !errors.Is(err, ErrPositiveCycle) {
			t.Fatalf("got %v, want ErrPositiveCycle", err)
		}
		checkCold(t, &s, func() error {
			_, err := build(bad, false).RelaxRestrictedFrom(&s, []int{0}, nil, r)
			return err
		})
		g := good()
		var fresh Scratch
		got, err := g.LongestRestricted(&s, 0, r)
		want, err2 := g.LongestRestricted(&fresh, 0, r)
		sameDist(t, "full", got, err, want, err2)
		for step := 0; step < 3; step++ {
			v := g.AddVertex()
			g.AddEdge(v-1, v, 2)
			g.AddEdge(step, v-2, 5)
			rr := open(g.N())
			got, err := g.RelaxRestrictedFrom(&s, []int{v - 1, step}, nil, rr)
			want, err2 := g.RelaxRestrictedFrom(&fresh, []int{v - 1, step}, nil, rr)
			sameDist(t, "warm", got, err, want, err2)
		}
	})
	t.Run("reverse", func(t *testing.T) {
		var s Scratch
		if _, err := build(bad, true).LongestIntoRestricted(&s, 0, r); !errors.Is(err, ErrPositiveCycle) {
			t.Fatalf("got %v, want ErrPositiveCycle", err)
		}
		checkCold(t, &s, func() error {
			_, err := build(bad, true).RelaxReverseRestrictedFrom(&s, []int{0}, nil, nil, r)
			return err
		})
		g := good()
		var fresh Scratch
		got, err := g.LongestIntoRestricted(&s, n-1, r)
		want, err2 := g.LongestIntoRestricted(&fresh, n-1, r)
		sameDist(t, "full", got, err, want, err2)
		for step := 0; step < 3; step++ {
			v := g.AddVertex()
			g.AddEdge(v, 0, 2)
			g.AddEdge(step, n-2, 5)
			rr := open(g.N())
			got, err := g.RelaxReverseRestrictedFrom(&s, []int{0, n - 2}, nil, nil, rr)
			want, err2 := g.RelaxReverseRestrictedFrom(&fresh, []int{0, n - 2}, nil, nil, rr)
			sameDist(t, "warm", got, err, want, err2)
		}
	})
}
