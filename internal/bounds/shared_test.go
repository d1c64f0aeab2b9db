package bounds

import (
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// replayAll walks the observer processes' views over a recorded run in
// global time order — the interleaving the live environment produces —
// and calls visit at each new state of an observer.
func replayAll(t *testing.T, r *run.Run, observers map[model.ProcID]bool, visit func(p model.ProcID, k int, v *run.View)) {
	t.Helper()
	net := r.Net()
	views := make([]*run.View, net.N())
	for p := range observers {
		v, err := run.ViewOf(r, run.BasicNode{Proc: p})
		if err != nil {
			t.Fatal(err)
		}
		views[p-1] = v
	}
	for tick := model.Time(1); tick <= r.Horizon(); tick++ {
		for _, p := range net.Procs() {
			node := r.NodeAt(p, tick)
			if !observers[p] || node.IsInitial() || r.MustTime(node) != tick {
				continue
			}
			if _, err := views[p-1].Advance(r); err != nil {
				t.Fatal(err)
			}
			visit(p, node.Index, views[p-1])
		}
	}
}

// TestSharedMatchesFreshBuild is the shared engine's differential
// acceptance test: several agents subscribe handles to ONE engine and
// advance interleaved in run order, and at every state of every agent,
// every knowledge answer through its handle — weight, knownness and error
// class, over basic and chain-crossing general node pairs, in both
// directions — is identical to a fresh NewExtendedFromView of that agent's
// own view. This pins the whole restriction machinery: frontier masks over
// vertices other agents forced into the standing graph, per-handle E”
// overlays, virtual boundary edges and per-handle warm-started relaxation.
func TestSharedMatchesFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		r, err := in.Simulate(sim.NewRandom(seed * 13))
		if err != nil {
			t.Fatal(err)
		}
		procs := in.Net.Procs()
		observers := map[model.ProcID]bool{
			procs[int(seed)%len(procs)]:     true,
			procs[(int(seed)+1)%len(procs)]: true,
			procs[(int(seed)+3)%len(procs)]: true,
		}
		eng := NewNetworkEngine(in.Net).NewRun()
		handles := make(map[model.ProcID]*Handle)
		fixed := make(map[model.ProcID]run.GeneralNode)
		replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
			h, ok := handles[p]
			if !ok {
				h = mustHandle(t, eng, v)
				handles[p] = h
				// A source queried both last and first around every state
				// transition, so the warm-started restricted RelaxFrom path is
				// exercised and compared at every state.
				fixed[p] = run.At(run.BasicNode{Proc: p, Index: 1})
			}
			fresh, err := NewExtendedFromView(v)
			if err != nil {
				t.Fatal(err)
			}
			qs := append([]run.GeneralNode{fixed[p]}, queryNodes(v)...)
			qs = append(qs, fixed[p])
			for i, t1 := range qs {
				for j, t2 := range qs {
					if i == j && t1.IsBasic() {
						continue
					}
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(t1, t2)
					gotKW, gotKnown, gotErr := h.KnowledgeWeight(t1, t2)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d p%d#%d %s->%s: err fresh=%v shared=%v",
							seed, p, k, t1, t2, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if wantKnown != gotKnown || (wantKnown && wantKW != gotKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: fresh (%d,%v) shared (%d,%v)",
							seed, p, k, t1, t2, wantKW, wantKnown, gotKW, gotKnown)
					}
				}
			}
		})
	}
}

// TestSharedMatchesOnlinePerAgent cross-checks the engine's two
// configurations directly: a handle on a run shared with another agent and
// the agent's private one-handle run, driven by the same view sequence,
// give identical answers at every state. (Both are separately pinned to
// fresh builds; this guards against compensating errors in the
// differential fixtures.)
func TestSharedMatchesOnlinePerAgent(t *testing.T) {
	in := workload.MustGenerate(workload.DefaultConfig(7))
	r, err := in.Simulate(sim.NewRandom(17))
	if err != nil {
		t.Fatal(err)
	}
	procs := in.Net.Procs()
	observers := map[model.ProcID]bool{procs[0]: true, procs[2]: true}
	eng := NewNetworkEngine(in.Net).NewRun()
	handles := make(map[model.ProcID]*Handle)
	onlines := make(map[model.ProcID]*Handle)
	replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
		if handles[p] == nil {
			handles[p] = mustHandle(t, eng, v)
			_, onlines[p] = newPrivate(t, v)
		}
		for _, t1 := range queryNodes(v) {
			for _, t2 := range queryNodes(v) {
				kw1, known1, err1 := handles[p].KnowledgeWeight(t1, t2)
				kw2, known2, err2 := onlines[p].KnowledgeWeight(t1, t2)
				if known1 != known2 || (known1 && kw1 != kw2) || (err1 == nil) != (err2 == nil) {
					t.Fatalf("p%d#%d %s->%s: shared (%d,%v,%v) online (%d,%v,%v)",
						p, k, t1, t2, kw1, known1, err1, kw2, known2, err2)
				}
			}
		}
	})
}

// TestSharedQueriesAreRepeatable: speculative chain vertices roll back
// completely even when several handles share the standing graph, so asking
// the same question twice never changes an answer or leaks vertices.
func TestSharedQueriesAreRepeatable(t *testing.T) {
	in := workload.MustGenerate(workload.DefaultConfig(3))
	r, err := in.Simulate(sim.NewRandom(5))
	if err != nil {
		t.Fatal(err)
	}
	procs := in.Net.Procs()
	observers := map[model.ProcID]bool{procs[0]: true, procs[1]: true}
	eng := NewNetworkEngine(in.Net).NewRun()
	handles := make(map[model.ProcID]*Handle)
	replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
		if handles[p] == nil {
			handles[p] = mustHandle(t, eng, v)
		}
		h := handles[p]
		qs := queryNodes(v)
		for _, t1 := range qs {
			for _, t2 := range qs {
				kw, known, err := h.KnowledgeWeight(t1, t2)
				before := eng.NumVertices()
				kw2, known2, err2 := h.KnowledgeWeight(t1, t2)
				if kw2 != kw || known2 != known || (err2 == nil) != (err == nil) {
					t.Fatalf("p%d#%d: %s->%s not repeatable: (%d,%v,%v) vs (%d,%v,%v)",
						p, k, t1, t2, kw, known, err, kw2, known2, err2)
				}
				if eng.NumVertices() != before {
					t.Fatalf("p%d#%d: query leaked %d vertices", p, k, eng.NumVertices()-before)
				}
			}
		}
	})
}

// TestSharedRejectsUnmodeledChannel: a receipt over a channel the network
// does not model is rejected by the recorder with run.ErrChannelMissing,
// so it never reaches a view or a handle; the handle keeps answering, on
// every retry, exactly what a fresh build of the unchanged view answers.
func TestSharedRejectsUnmodeledChannel(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).MustBuild()
	receiver := unmodeledReceipt(t, net)
	eng := NewNetworkEngine(net).NewRun()
	h := mustHandle(t, eng, receiver)
	fresh, err := NewExtendedFromView(receiver)
	if err != nil {
		t.Fatal(err)
	}
	sigma := run.At(receiver.Origin())
	wantW, _, wantOK, wantErr := fresh.KnowledgeWeight(sigma, sigma)
	for round := 0; round < 3; round++ {
		if err := h.Sync(); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		w, ok, err := h.KnowledgeWeight(sigma, sigma)
		if w != wantW || ok != wantOK || (err == nil) != (wantErr == nil) {
			t.Fatalf("round %d: handle %d %v %v, fresh %d %v %v", round, w, ok, err, wantW, wantOK, wantErr)
		}
	}
}

// TestSharedAllocationGuard keeps the steady-state query path
// allocation-light, in the style of the existing guards: once the engine
// has absorbed the run and a handle's cache is warm, a repeated
// basic-to-basic knowledge query allocates (at most) a small constant —
// the restriction is assembled on the stack, relaxation runs in the leased
// scratch, and the empty delta leaves nothing to sync.
func TestSharedAllocationGuard(t *testing.T) {
	net := model.MustComplete(4, 1, 5)
	r := sim.MustSimulate(sim.Config{
		Net: net, Horizon: 40, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
	})
	eng := NewNetworkEngine(net).NewRun()
	var h *Handle
	var view *run.View
	observers := map[model.ProcID]bool{2: true}
	replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
		if h == nil {
			h = mustHandle(t, eng, v)
			view = v
		}
	})
	if h == nil {
		t.Fatal("observer never moves")
	}
	theta1 := run.At(run.BasicNode{Proc: 2, Index: 1})
	theta2 := run.At(view.Origin())
	// Warm the cache: the first query pays the full restricted relaxation.
	if _, known, err := h.KnowledgeWeight(theta1, theta2); err != nil || !known {
		t.Fatalf("warmup: known=%v err=%v", known, err)
	}
	const limit = 4
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := h.KnowledgeWeight(theta1, theta2); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("warm shared query allocates %.0f times per run, want <= %d", got, limit)
	}
}

// TestSharedScratchPool: releasing a handle returns its scratch for the
// next subscriber, and a released handle that queries again transparently
// re-leases and answers correctly.
func TestSharedScratchPool(t *testing.T) {
	in := workload.MustGenerate(workload.DefaultConfig(2))
	r, err := in.Simulate(sim.NewRandom(3))
	if err != nil {
		t.Fatal(err)
	}
	p := in.Net.Procs()[0]
	if r.LastIndex(p) == 0 {
		t.Skip("process never moves")
	}
	eng := NewNetworkEngine(in.Net).NewRun()
	var h *Handle
	replayAll(t, r, map[model.ProcID]bool{p: true}, func(_ model.ProcID, _ int, v *run.View) {
		if h == nil {
			h = mustHandle(t, eng, v)
		}
	})
	sigma := run.At(h.View().Origin())
	theta := run.At(run.BasicNode{Proc: p, Index: 1})
	kw, known, err := h.KnowledgeWeight(theta, sigma)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // idempotent
	kw2, known2, err2 := h.KnowledgeWeight(theta, sigma)
	if err2 != nil || known2 != known || kw2 != kw {
		t.Fatalf("after release: (%d,%v,%v) vs (%d,%v,%v)", kw2, known2, err2, kw, known, err)
	}
	h2 := mustHandle(t, eng, h.View())
	if kw3, known3, err3 := h2.KnowledgeWeight(theta, sigma); err3 != nil || known3 != known || kw3 != kw {
		t.Fatalf("second handle: (%d,%v,%v) vs (%d,%v,%v)", kw3, known3, err3, kw, known, err)
	}
}

// mustHandle subscribes a view to a shared engine, failing the test on the
// (programmer-error) network-mismatch path.
func mustHandle(tb testing.TB, s *Shared, v *run.View) *Handle {
	tb.Helper()
	h, err := s.NewHandle(v)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}
