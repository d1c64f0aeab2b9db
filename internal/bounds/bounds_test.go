package bounds

import (
	"errors"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// forkNet is the Figure 1 network: C=1 -> A=2 [1,3], C=1 -> B=3 [8,12].
func forkNet(t *testing.T) *model.Network {
	t.Helper()
	return model.NewBuilder(3).Chan(1, 2, 1, 3).Chan(1, 3, 8, 12).MustBuild()
}

func forkRun(t *testing.T, policy sim.Policy) *run.Run {
	t.Helper()
	r, err := sim.Simulate(sim.Config{
		Net: forkNet(t), Horizon: 40, Policy: policy, Externals: sim.GoAt(1, 1, "go"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBasicGraphShape(t *testing.T) {
	r := forkRun(t, sim.Eager{})
	gb := NewBasic(r)
	// Nodes: 3 initial + C#1 + A#1 + B#1 = 6.
	if gb.NumVertices() != 6 {
		t.Errorf("vertices = %d, want 6", gb.NumVertices())
	}
	// Edges: 3 successor + 2 deliveries * 2 = 7.
	if gb.NumEdges() != 7 {
		t.Errorf("edges = %d, want 7", gb.NumEdges())
	}
	// Vertex round-trips.
	for _, n := range []run.BasicNode{{Proc: 1, Index: 0}, {Proc: 2, Index: 1}, {Proc: 3, Index: 1}} {
		v, err := gb.Vertex(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := gb.NodeOf(v); got != n {
			t.Errorf("NodeOf(Vertex(%s)) = %s", n, got)
		}
	}
	if _, err := gb.Vertex(run.BasicNode{Proc: 2, Index: 9}); !errors.Is(err, ErrNotInGraph) {
		t.Errorf("missing node: %v", err)
	}
}

func TestBasicLongestFigure1(t *testing.T) {
	r := forkRun(t, sim.Lazy{})
	gb := NewBasic(r)
	a := run.BasicNode{Proc: 2, Index: 1}
	b := run.BasicNode{Proc: 3, Index: 1}
	// a -> b: back up the C->A message (-U=-3), down the C->B message (+8).
	w, steps, ok, err := gb.LongestBetween(a, b)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w != 5 {
		t.Errorf("weight %d, want L_CB - U_CA = 5", w)
	}
	if len(steps) != 2 || steps[0].Kind != StepUpper || steps[1].Kind != StepLower {
		t.Errorf("steps = %v", steps)
	}
	if got, err := gb.CheckLemma1(steps); err != nil || got != 5 {
		t.Errorf("Lemma 1 check: %d, %v", got, err)
	}
	// b -> a: -U_CB + L_CA = -12 + 1 = -11.
	w, _, ok, err = gb.LongestBetween(b, a)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if w != -11 {
		t.Errorf("reverse weight %d, want -11", w)
	}
}

func TestPrecedenceSetPClosed(t *testing.T) {
	r := forkRun(t, sim.Eager{})
	gb := NewBasic(r)
	b := run.BasicNode{Proc: 3, Index: 1}
	set, err := gb.PrecedenceSet(b)
	if err != nil {
		t.Fatal(err)
	}
	// Definition 11: for every edge (u, v) with v in the set, u is too.
	g := gb.Graph()
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(u) {
			if set[e.To] && !set[u] {
				t.Fatalf("not p-closed: edge %d -> %d", u, e.To)
			}
		}
	}
}

func TestExtendedStructureFigure1(t *testing.T) {
	r := forkRun(t, sim.Eager{})
	// sigma = B's receipt of C's message.
	sigma := run.BasicNode{Proc: 3, Index: 1}
	ext, err := NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Past: C#0, C#1, B#0, B#1 (A's receipt is invisible to B).
	if got := ext.Past().Size(); got != 4 {
		t.Errorf("past size %d, want 4", got)
	}
	if ext.Past().Contains(run.BasicNode{Proc: 2, Index: 1}) {
		t.Error("A's node leaked into B's past")
	}
	// Knowledge: K_sigma(a-node --x--> sigma) holds up to x = L_CB - U_CA.
	aNode := run.Via(run.BasicNode{Proc: 1, Index: 1}, model.Path{1, 2})
	kw, steps, known, err := ext.KnowledgeWeight(aNode, run.At(sigma))
	if err != nil || !known {
		t.Fatalf("known=%v err=%v", known, err)
	}
	if kw != 5 {
		t.Errorf("kw = %d, want 5", kw)
	}
	if PathWeight(steps) != 5 {
		t.Errorf("steps weight %d", PathWeight(steps))
	}
	ok, err := ext.Knows(aNode, 5, run.At(sigma))
	if err != nil || !ok {
		t.Errorf("Knows(5) = %v, %v", ok, err)
	}
	ok, err = ext.Knows(aNode, 6, run.At(sigma))
	if err != nil || ok {
		t.Errorf("Knows(6) = %v, %v", ok, err)
	}
}

func TestExtendedChainVertexDedup(t *testing.T) {
	r := forkRun(t, sim.Eager{})
	sigma := run.BasicNode{Proc: 3, Index: 1}
	ext, err := NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	aNode := run.Via(run.BasicNode{Proc: 1, Index: 1}, model.Path{1, 2})
	v1, err := ext.VertexOfGeneral(aNode)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ext.VertexOfGeneral(aNode)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("chain vertex not deduplicated: %d vs %d", v1, v2)
	}
}

func TestExtendedRejectsUnrecognized(t *testing.T) {
	r := forkRun(t, sim.Eager{})
	// sigma = A's receipt; A has never heard of B's node... B's initial
	// node is not in A's past either way; use a node of B with index 1.
	sigma := run.BasicNode{Proc: 2, Index: 1}
	ext, err := NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ext.VertexOfGeneral(run.At(run.BasicNode{Proc: 3, Index: 1}))
	if !errors.Is(err, ErrNotRecognized) {
		t.Errorf("got %v, want ErrNotRecognized", err)
	}
}

// TestExtendedVertexSetStaysAsBuilt: a graph keeps the vertex set it was
// built with when its view advances afterwards. Every node the view held
// keeps its vertex; every node it gained is not in the graph, rather than
// landing in another process's block or on an auxiliary vertex.
func TestExtendedVertexSetStaysAsBuilt(t *testing.T) {
	r, err := sim.Simulate(sim.Config{
		Net: model.MustComplete(3, 1, 2), Horizon: 12, Policy: sim.Eager{}, Externals: sim.GoAt(1, 1, "go"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := run.ViewOf(r, run.BasicNode{Proc: 1, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewExtendedFromView(v)
	if err != nil {
		t.Fatal(err)
	}
	built := make(map[run.BasicNode]int)
	for _, n := range v.Nodes() {
		if built[n], err = ext.VertexOfPast(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := v.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	gained := 0
	for _, n := range v.Nodes() {
		got, err := ext.VertexOfPast(n)
		want, ok := built[n]
		switch {
		case ok && (err != nil || got != want):
			t.Errorf("%s: vertex %d, %v after the view advanced; built as %d", n, got, err, want)
		case !ok && !errors.Is(err, ErrNotInGraph):
			t.Errorf("%s, gained after the build: vertex %d, %v; want ErrNotInGraph", n, got, err)
		case !ok:
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("the view gained no node: nothing checked")
	}
}

func TestExtendedRejectsInitialChain(t *testing.T) {
	r := forkRun(t, sim.Eager{})
	sigma := run.BasicNode{Proc: 3, Index: 1}
	ext, err := NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// A chain off B's initial node denotes nothing.
	_, err = ext.VertexOfGeneral(run.Via(run.BasicNode{Proc: 3, Index: 0}, model.Path{3, 2}))
	if err == nil {
		t.Error("chain off an initial node accepted")
	}
}

func TestKnowledgeSoundInRun(t *testing.T) {
	// Soundness of kw against ground truth across policies and scenarios:
	// the realized gap never undercuts the known bound.
	for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(9)} {
		r := forkRun(t, pol)
		sigma := run.BasicNode{Proc: 3, Index: 1}
		ext, err := NewExtended(r, sigma)
		if err != nil {
			t.Fatal(err)
		}
		aNode := run.Via(run.BasicNode{Proc: 1, Index: 1}, model.Path{1, 2})
		kw, _, known, err := ext.KnowledgeWeight(aNode, run.At(sigma))
		if err != nil || !known {
			t.Fatal(err)
		}
		gap := r.MustTime(sigma) - r.MustTimeOf(aNode)
		if gap < kw {
			t.Errorf("%s: gap %d < kw %d", pol.Name(), gap, kw)
		}
	}
}

func TestStepKindStrings(t *testing.T) {
	kinds := []StepKind{StepSucc, StepLower, StepUpper, StepAuxEnter, StepAuxHop, StepAuxExit, StepAuxChain}
	want := []string{"succ", "lower", "upper", "aux-enter", "aux-hop", "aux-exit", "aux-chain"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("%d: %q != %q", i, k.String(), want[i])
		}
	}
	if StepKind(99).String() != "StepKind(99)" {
		t.Error("unknown kind rendering")
	}
}

func TestPointString(t *testing.T) {
	if got := AuxPoint(3).String(); got != "psi_3" {
		t.Errorf("aux point = %q", got)
	}
	p := NodePoint(run.At(run.BasicNode{Proc: 2, Index: 1}))
	if got := p.String(); got != "p2#1" {
		t.Errorf("node point = %q", got)
	}
	if p.ProcOf() != 2 || AuxPoint(3).ProcOf() != 3 {
		t.Error("ProcOf wrong")
	}
}
