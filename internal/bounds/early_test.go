package bounds

import (
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// earlyTargets picks the fixed query targets an Early-kind agent keeps
// asking about: node vertices of OTHER processes (an Early agent watches
// KW(sigma, aNode) for a's node on C/A, never its own origin), so the
// reverse per-target cache is the natural servant of every query.
func earlyTargets(v *run.View) []run.GeneralNode {
	net := v.Net()
	var out []run.GeneralNode
	for p := model.ProcID(1); int(p) <= net.N() && len(out) < 2; p++ {
		if p == v.Origin().Proc {
			continue
		}
		if bnd, ok := v.Boundary(p); ok && !bnd.IsInitial() {
			out = append(out, run.At(bnd))
		}
	}
	return out
}

// TestOnlineEarlyMatchesFreshBuild is the reverse cache's differential
// acceptance test on the private engine (a one-handle run): on every state
// of random scenarios, Early-pattern queries — moving source sigma (and its
// chain-crossing neighbours), fixed targets — through the incrementally
// maintained reverse distances are identical to a fresh
// NewExtendedFromView of the same view. Interleaved forward queries pin
// that the two caches coexist without cross-talk, and the stats assert
// the reverse path actually served (this test would be vacuous if the
// selection policy quietly routed everything forward).
func TestOnlineEarlyMatchesFreshBuild(t *testing.T) {
	var served EngineStats
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		r, err := in.Simulate(sim.NewRandom(seed * 13))
		if err != nil {
			t.Fatal(err)
		}
		procs := in.Net.Procs()
		p := procs[int(seed)%len(procs)]
		if r.LastIndex(p) == 0 {
			continue
		}
		var eng *Handle
		replayViews(t, r, p, func(k int, v *run.View) {
			if eng == nil {
				_, eng = newPrivate(t, v)
			}
			fresh, err := NewExtendedFromView(v)
			if err != nil {
				t.Fatal(err)
			}
			targets := earlyTargets(v)
			sources := queryNodes(v)
			for _, t2 := range targets {
				for _, t1 := range sources {
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(t1, t2)
					gotKW, gotKnown, gotErr := eng.KnowledgeWeight(t1, t2)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d p%d#%d %s->%s: err fresh=%v online=%v",
							seed, p, k, t1, t2, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if wantKnown != gotKnown || (wantKnown && wantKW != gotKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: fresh (%d,%v) online (%d,%v)",
							seed, p, k, t1, t2, wantKW, wantKnown, gotKW, gotKnown)
					}
				}
				// A forward-path query (chain-vertex target, so the selector
				// cannot route it through the reverse cache) between reverse
				// queries must neither be corrupted by nor corrupt that cache.
				sigma := run.At(v.Origin())
				for _, chain := range sources {
					if chain.IsBasic() {
						continue
					}
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(sigma, chain)
					gotKW, gotKnown, gotErr := eng.KnowledgeWeight(sigma, chain)
					if (wantErr == nil) != (gotErr == nil) ||
						(wantErr == nil && (wantKnown != gotKnown || (wantKnown && wantKW != gotKW))) {
						t.Fatalf("seed %d p%d#%d forward %s->%s: fresh (%d,%v,%v) online (%d,%v,%v)",
							seed, p, k, sigma, chain, wantKW, wantKnown, wantErr, gotKW, gotKnown, gotErr)
					}
					break
				}
			}
		})
		if eng != nil {
			served.Add(eng.Stats())
		}
	}
	if served.RevHits == 0 || served.RevRebuilds == 0 {
		t.Fatalf("reverse cache never exercised: %+v", served)
	}
}

// TestSharedEarlyMatchesFreshBuild is the same differential through the
// shared engine's restricted handles: several agents interleaved on ONE
// standing graph, each repeatedly asking Early-pattern questions about a
// fixed target, must answer byte-identically to fresh builds at every
// state — pinning the reverse relaxation over frontier masks, per-handle
// E″ transposes, reverse virtual boundary edges and the aux-band refresh
// after E″ retirement.
func TestSharedEarlyMatchesFreshBuild(t *testing.T) {
	var served EngineStats
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
		replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
			h, ok := handles[p]
			if !ok {
				h = mustHandle(t, eng, v)
				handles[p] = h
			}
			fresh, err := NewExtendedFromView(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, t2 := range earlyTargets(v) {
				for _, t1 := range queryNodes(v) {
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
		for _, h := range handles {
			served.Add(h.Stats())
		}
	}
	if served.RevHits == 0 || served.RevRebuilds == 0 {
		t.Fatalf("reverse cache never exercised: %+v", served)
	}
}

// TestSharedEarlyAllocationGuard is the Early-kind twin of
// TestSharedAllocationGuard: once a handle's reverse cache is warm for a
// fixed target, a repeated Early-pattern query (moving source, same
// target) must allocate at most the same small constant — the reverse
// restriction is assembled on the stack and relaxation runs in the
// leased reverse scratch.
func TestSharedEarlyAllocationGuard(t *testing.T) {
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
	// Early shape: moving source = the observer's own origin, fixed target
	// = another process's node (the aNode stand-in).
	target, ok := view.Boundary(1)
	if !ok || target.IsInitial() {
		t.Fatal("no boundary node on proc 1")
	}
	theta2 := run.At(target)
	// An Early agent's source MOVES between queries of the same target — a
	// source matching the forward cache would be served forward. Warm up
	// with two older sources (the first establishes the forward cache, the
	// second misses it and builds the reverse cache for theta2), then
	// measure with a third: every measured query is a reverse warm hit.
	first := run.At(run.BasicNode{Proc: 2, Index: 1})
	second := run.At(run.BasicNode{Proc: 2, Index: 2})
	sigma := run.At(view.Origin())
	if _, known, err := h.KnowledgeWeight(first, theta2); err != nil || !known {
		t.Fatalf("forward warmup: known=%v err=%v", known, err)
	}
	if _, known, err := h.KnowledgeWeight(second, theta2); err != nil || !known {
		t.Fatalf("reverse warmup: known=%v err=%v", known, err)
	}
	base := h.Stats()
	const limit = 4
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := h.KnowledgeWeight(sigma, theta2); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("warm Early query allocates %.0f times per run, want <= %d", got, limit)
	}
	if after := h.Stats(); after.RevHits <= base.RevHits {
		t.Fatalf("measured queries were not reverse warm hits: %+v -> %+v", base, after)
	}
}

// TestEarlyHandleForwardDeltaBounded pins that an Early-kind handle's
// memory does not grow with the horizon: once the reverse cache serves
// the queries, the forward cache is retired and its delta lists (seeds,
// admitted) stay empty after every query, so their capacity is set by
// one sync's growth, not by the length of the run.
func TestEarlyHandleForwardDeltaBounded(t *testing.T) {
	deltaCap := func(horizon model.Time) (int, int) {
		net := model.MustComplete(4, 1, 5)
		r := sim.MustSimulate(sim.Config{
			Net: net, Horizon: horizon, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
		})
		eng := NewNetworkEngine(net).NewRun()
		var h *Handle
		var target run.GeneralNode
		fixed, reverse, maxCap := false, 0, 0
		replayAll(t, r, map[model.ProcID]bool{2: true}, func(p model.ProcID, k int, v *run.View) {
			if h == nil {
				h = mustHandle(t, eng, v)
			}
			if !fixed {
				bnd, ok := v.Boundary(1)
				if !ok || bnd.IsInitial() {
					return
				}
				target, fixed = run.At(bnd), true
			}
			before := h.Stats()
			if _, _, err := h.KnowledgeWeight(run.At(v.Origin()), target); err != nil {
				t.Fatal(err)
			}
			after := h.Stats()
			if after.RevHits == before.RevHits && after.RevRebuilds == before.RevRebuilds {
				return
			}
			reverse++
			if len(h.seeds) != 0 || len(h.admitted) != 0 {
				t.Fatalf("horizon %d state %d: reverse-served query left %d forward seeds and %d admitted",
					horizon, k, len(h.seeds), len(h.admitted))
			}
			maxCap = max(maxCap, cap(h.seeds), cap(h.admitted))
		})
		return reverse, maxCap
	}
	shortQueries, shortCap := deltaCap(50)
	longQueries, longCap := deltaCap(400)
	if shortQueries < 5 || longQueries < 5*shortQueries {
		t.Fatalf("reverse cache served %d (h=50) and %d (h=400) queries: fixture too thin", shortQueries, longQueries)
	}
	t.Logf("reverse-served queries %d / %d, delta capacity %d / %d", shortQueries, longQueries, shortCap, longCap)
	if longCap > shortCap {
		t.Errorf("forward delta capacity grows with the horizon: %d at h=50, %d at h=400", shortCap, longCap)
	}
}

// TestEarlyHandleReverseMirrorBounded is the reverse twin of
// TestEarlyHandleForwardDeltaBounded: an Early-kind handle's transposed E”
// mirror holds storage for the E” entries in flight, not for every sender
// the run ever had. A sender's slot is recycled once its last entry
// retires, so the entry storage at horizon 400 is no larger than at
// horizon 50.
func TestEarlyHandleReverseMirrorBounded(t *testing.T) {
	entryCap := func(horizon model.Time) (int, int) {
		net := model.MustComplete(4, 1, 5)
		r := sim.MustSimulate(sim.Config{
			Net: net, Horizon: horizon, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
		})
		eng := NewNetworkEngine(net).NewRun()
		var h *Handle
		var target run.GeneralNode
		fixed, reverse := false, 0
		replayAll(t, r, map[model.ProcID]bool{2: true}, func(p model.ProcID, k int, v *run.View) {
			if h == nil {
				h = mustHandle(t, eng, v)
			}
			if !fixed {
				bnd, ok := v.Boundary(1)
				if !ok || bnd.IsInitial() {
					return
				}
				target, fixed = run.At(bnd), true
			}
			before := h.Stats()
			if _, _, err := h.KnowledgeWeight(run.At(v.Origin()), target); err != nil {
				t.Fatal(err)
			}
			if after := h.Stats(); after.RevHits > before.RevHits || after.RevRebuilds > before.RevRebuilds {
				reverse++
			}
		})
		if h == nil || h.rmirror == nil {
			t.Fatalf("horizon %d: the reverse mirror was never enabled", horizon)
		}
		return reverse, h.rmirror.EntryCap()
	}
	shortQueries, shortCap := entryCap(50)
	longQueries, longCap := entryCap(400)
	if shortQueries < 5 || longQueries < 5*shortQueries {
		t.Fatalf("reverse cache served %d (h=50) and %d (h=400) queries: fixture too thin", shortQueries, longQueries)
	}
	t.Logf("reverse-served queries %d / %d, mirror entry storage %d / %d", shortQueries, longQueries, shortCap, longCap)
	if longCap > shortCap {
		t.Errorf("reverse mirror storage grows with the horizon: %d entries at h=50, %d at h=400", shortCap, longCap)
	}
}
