package bounds_test

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bench"
	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// driveRun replays the whole recorded run through a prefix-aware engine
// stamp: every observer state is differentially checked against a fresh
// build, exactly as the NetworkEngine acceptance test does.
func driveRun(t *testing.T, tag string, shared *bounds.Shared, r *run.Run, observers map[model.ProcID]bool, maxQueries int) {
	t.Helper()
	handles := make(map[model.ProcID]*bounds.Handle)
	d := newStateWalker(t, r, observers)
	for {
		p, k, v, ok := d.step(t)
		if !ok {
			break
		}
		h := handles[p]
		if h == nil {
			h = mustHandle(t, shared, v)
			handles[p] = h
		}
		diffAgainstFresh(t, fmt.Sprintf("%s p%d#%d", tag, p, k), h, v, maxQueries)
	}
	for _, h := range handles {
		h.Release()
	}
}

// TestPrefixEngineMatchesFreshBuild is the standing-prefix tier's
// differential acceptance test: for EVERY scenario of the full registry
// (multi-agent family included up to m=16), a first run is stamped through
// NewRunAt on a cache miss, fully absorbed, and frozen with CommitPrefix;
// a second identical run then stamps the frozen prefix (cache hit) and is
// driven by a DIFFERENT observer set, so standing material beyond each
// agent's frontier — now present from the very first sync — must stay
// hidden beyond its handle's frontier. Every knowledge answer of both runs
// must match a fresh NewExtendedFromView build of the agent's own view at
// every state. Each scenario owns its engine, so scenarios run as parallel
// subtests.
func TestPrefixEngineMatchesFreshBuild(t *testing.T) {
	reg := scenario.RegistrySized(0, 16)
	for _, name := range scenario.Names(reg) {
		name, sc := name, reg[name]
		if testing.Short() && sc.Net.N() > 8 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			maxQueries := 5
			if sc.Net.N() > 8 {
				maxQueries = 3
			}
			r, err := sc.Simulate(nil) // deterministic (eager) schedule
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fp := r.Fingerprint()
			if fp == 0 {
				t.Fatalf("%s: zero run fingerprint", name)
			}
			eng := bounds.NewNetworkEngine(sc.Net)
			procs := sc.Net.Procs()

			shared, hit := eng.NewRunAt(fp)
			if hit || shared.FromPrefix() {
				t.Fatalf("%s: first stamp reported a prefix hit", name)
			}
			missObservers := map[model.ProcID]bool{procs[0]: true, procs[len(procs)/2]: true}
			driveRun(t, name+" miss-run", shared, r, missObservers, maxQueries)
			if !shared.CommitPrefix() {
				t.Fatalf("%s: CommitPrefix did not commit after a miss", name)
			}
			if shared.CommitPrefix() {
				t.Fatalf("%s: second CommitPrefix committed again", name)
			}
			if !eng.Prefixes().Contains(fp) {
				t.Fatalf("%s: committed prefix not cached", name)
			}

			hitShared, hit := eng.NewRunAt(fp)
			if !hit || !hitShared.FromPrefix() {
				t.Fatalf("%s: second stamp missed the committed prefix", name)
			}
			hitObservers := map[model.ProcID]bool{procs[len(procs)-1]: true, procs[len(procs)/3]: true}
			driveRun(t, name+" hit-run", hitShared, r, hitObservers, maxQueries)
			if hitShared.CommitPrefix() {
				t.Fatalf("%s: a cache-hit run committed a prefix", name)
			}

			st := eng.Stats()
			if st.PrefixHits != 1 || st.PrefixMisses != 1 || st.Runs != 2 {
				t.Fatalf("%s: stats %+v, want 1 hit / 1 miss / 2 runs", name, st)
			}
		})
	}
}

// TestPrefixEngineDonorSurvivesFreeze drives the DONOR run after its
// standing state was frozen and a sibling was stamped from the snapshot,
// interleaving both runs state by state. The donor keeps growing (new
// observers force chain vertices to be appended and rolled back above the
// frozen lengths) while the stamped sibling reads the frozen prefix — the
// freeze-and-extend aliasing must keep both byte-identical to fresh builds.
func TestPrefixEngineDonorSurvivesFreeze(t *testing.T) {
	sc := scenario.MultiAgent(4)
	r, err := sc.Simulate(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := bounds.NewNetworkEngine(sc.Net)
	donor, hit := eng.NewRunAt(r.Fingerprint())
	if hit {
		t.Fatal("empty cache reported a hit")
	}
	procs := sc.Net.Procs()
	// Absorb only part of the run before freezing: the donor's later growth
	// and the stamped run's extension both exercise the aliased tables.
	partial := map[model.ProcID]bool{procs[0]: true}
	dh := make(map[model.ProcID]*bounds.Handle)
	d := newStateWalker(t, r, partial)
	for {
		p, _, v, ok := d.step(t)
		if !ok {
			break
		}
		h := dh[p]
		if h == nil {
			h = mustHandle(t, donor, v)
			dh[p] = h
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if !donor.CommitPrefix() {
		t.Fatal("CommitPrefix did not commit")
	}
	stamped, hit := eng.NewRunAt(r.Fingerprint())
	if !hit {
		t.Fatal("stamp after commit missed")
	}

	// Interleave: donor absorbs more observers (growing past the freeze)
	// while the stamped sibling extends the frozen prefix independently.
	donorObs := map[model.ProcID]bool{procs[1]: true, procs[2]: true}
	stampObs := map[model.ProcID]bool{procs[3]: true, procs[0]: true}
	type side struct {
		d       *stateWalker
		shared  *bounds.Shared
		handles map[model.ProcID]*bounds.Handle
	}
	sides := []*side{
		{d: newStateWalker(t, r, donorObs), shared: donor, handles: dh},
		{d: newStateWalker(t, r, stampObs), shared: stamped, handles: make(map[model.ProcID]*bounds.Handle)},
	}
	for live := 1; live > 0; {
		live = 0
		for i, s := range sides {
			p, k, v, ok := s.d.step(t)
			if !ok {
				continue
			}
			live++
			h := s.handles[p]
			if h == nil {
				h = mustHandle(t, s.shared, v)
				s.handles[p] = h
			}
			diffAgainstFresh(t, fmt.Sprintf("side %d p%d#%d", i, p, k), h, v, 4)
		}
	}
}

// TestPrefixEngineLRUEviction pins the cache policy: capacity bounds the
// retained prefixes, the least recently used entry is evicted first, and a
// lookup refreshes recency.
func TestPrefixEngineLRUEviction(t *testing.T) {
	sc := scenario.MultiAgent(2)
	eng := bounds.NewNetworkEngine(sc.Net)
	eng.Prefixes().SetCapacity(2)

	policies := []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(11)}
	fps := make([]uint64, len(policies))
	for i, pol := range policies {
		r, err := sc.Simulate(pol)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = r.Fingerprint()
	}
	if fps[0] == fps[1] || fps[1] == fps[2] || fps[0] == fps[2] {
		t.Fatalf("test needs three distinct runs, got fingerprints %#x %#x %#x", fps[0], fps[1], fps[2])
	}

	commit := func(fp uint64) {
		t.Helper()
		s, hit := eng.NewRunAt(fp)
		if hit {
			t.Fatalf("unexpected hit for %#x", fp)
		}
		if !s.CommitPrefix() {
			t.Fatalf("commit failed for %#x", fp)
		}
	}
	commit(fps[0])
	commit(fps[1])
	if n := eng.Prefixes().Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// Touch fps[0] so fps[1] becomes the LRU victim of the next insert.
	if _, hit := eng.NewRunAt(fps[0]); !hit {
		t.Fatal("recency touch missed")
	}
	commit(fps[2])
	if n := eng.Prefixes().Len(); n != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", n)
	}
	if !eng.Prefixes().Contains(fps[0]) || !eng.Prefixes().Contains(fps[2]) {
		t.Fatal("eviction removed the wrong entry")
	}
	if eng.Prefixes().Contains(fps[1]) {
		t.Fatal("LRU entry survived over-capacity insert")
	}
	if ev := eng.Stats().PrefixEvictions; ev != 1 {
		t.Fatalf("stats report %d evictions, want 1", ev)
	}

	// NewRunAt(0) bypasses the cache entirely: no lookup, nothing to commit.
	before := eng.Stats()
	s, hit := eng.NewRunAt(0)
	if hit || s.FromPrefix() || s.CommitPrefix() {
		t.Fatal("NewRunAt(0) touched the prefix cache")
	}
	after := eng.Stats()
	if after.PrefixHits != before.PrefixHits || after.PrefixMisses != before.PrefixMisses {
		t.Fatal("NewRunAt(0) counted cache traffic")
	}
}

// TestPrefixEngineAllocationGuard pins the saving the prefix tier buys: a
// full absorption pass (stamp + every observer handle syncing the whole
// run) out of a warm prefix cache must allocate well under half of what the
// same pass costs building the standing graph from scratch.
func TestPrefixEngineAllocationGuard(t *testing.T) {
	sc := scenario.MultiAgent(4)
	r, err := sc.Simulate(nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := r.Fingerprint()
	eng := bounds.NewNetworkEngine(sc.Net)
	procs := sc.Net.Procs()
	observers := map[model.ProcID]bool{procs[0]: true, procs[len(procs)/2]: true}
	states := bench.States(r, observers)

	absorb := func(shared *bounds.Shared) {
		views := make(map[model.ProcID]*run.View, len(observers))
		handles := make(map[model.ProcID]*bounds.Handle, len(observers))
		for p := range observers {
			v, err := run.ViewOf(r, run.BasicNode{Proc: p})
			if err != nil {
				t.Fatal(err)
			}
			views[p], handles[p] = v, mustHandle(t, shared, v)
		}
		for _, st := range states {
			if _, err := views[st.Proc].Advance(r); err != nil {
				t.Fatal(err)
			}
			if err := handles[st.Proc].Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range handles {
			h.Release()
		}
	}

	// Warm the cache (and the scratch pool, so both measurements lease
	// rather than make their scratches).
	warmup, hit := eng.NewRunAt(fp)
	if hit {
		t.Fatal("cold cache reported a hit")
	}
	absorb(warmup)
	if !warmup.CommitPrefix() {
		t.Fatal("warmup commit failed")
	}

	cold := testing.AllocsPerRun(20, func() {
		absorb(eng.NewRun())
	})
	warm := testing.AllocsPerRun(20, func() {
		s, hit := eng.NewRunAt(fp)
		if !hit {
			t.Fatal("warm cache missed")
		}
		absorb(s)
	})
	if warm*2 >= cold {
		t.Errorf("warm prefix absorption allocates %.0f times per run, cold %.0f — want warm*2 < cold", warm, cold)
	}
}
