package bounds

import (
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// batchXs is the threshold grid the weight-plane differentials sweep:
// negative, zero and positive thresholds around the small knowledge weights
// random workload runs produce.
var batchXs = []int{-2, 0, 1, 3}

// TestWeightPlaneMatchesWitnessPath pins the weight-only fast path to the
// witness-bearing query it replaced: on every state of random scenarios,
// Extended.Weight and Extended.KnowsAt agree with KnowledgeWeight and
// per-threshold Knows on weight, knownness, error class and every verdict
// of the threshold grid — and so does KnowsAt through the private
// incremental engine (a one-handle run), which counts every grid answer
// but the first as served without its own relaxation.
func TestWeightPlaneMatchesWitnessPath(t *testing.T) {
	holds := make([]bool, len(batchXs))
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		r, err := in.Simulate(sim.NewRandom(seed * 19))
		if err != nil {
			t.Fatal(err)
		}
		procs := in.Net.Procs()
		p := procs[int(seed)%len(procs)]
		if r.LastIndex(p) == 0 {
			continue
		}
		var h *Handle
		replayViews(t, r, p, func(k int, v *run.View) {
			if h == nil {
				_, h = newPrivate(t, v)
			}
			fresh, err := NewExtendedFromView(v)
			if err != nil {
				t.Fatal(err)
			}
			qs := queryNodes(v)
			for i, t1 := range qs {
				for j, t2 := range qs {
					if i == j && t1.IsBasic() {
						continue
					}
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(t1, t2)
					gotKW, gotKnown, gotErr := fresh.Weight(t1, t2)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d p%d#%d %s->%s: err witness=%v weight=%v",
							seed, p, k, t1, t2, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if wantKnown != gotKnown || (wantKnown && wantKW != gotKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: witness (%d,%v) weight (%d,%v)",
							seed, p, k, t1, t2, wantKW, wantKnown, gotKW, gotKnown)
					}
					// The grid evaluation is one more SPFA per pair times the
					// per-threshold Knows oracle; a few pairs per state supply
					// plenty of coverage without a quadratic blowup.
					if i > 1 {
						continue
					}
					kw, known, err := fresh.KnowsAt(t1, batchXs, t2, holds)
					if err != nil {
						t.Fatal(err)
					}
					if known != wantKnown || (known && kw != wantKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: KnowsAt (%d,%v) want (%d,%v)",
							seed, p, k, t1, t2, kw, known, wantKW, wantKnown)
					}
					want := make([]bool, len(batchXs))
					for xi, x := range batchXs {
						if want[xi], err = fresh.Knows(t1, x, t2); err != nil {
							t.Fatal(err)
						}
						if holds[xi] != want[xi] {
							t.Fatalf("seed %d p%d#%d %s->%s x=%d: KnowsAt %v, Knows %v",
								seed, p, k, t1, t2, x, holds[xi], want[xi])
						}
					}
					before := h.Stats()
					kw, known, err = h.KnowsAt(t1, batchXs, t2, holds)
					if err != nil {
						t.Fatal(err)
					}
					if known != wantKnown || (known && kw != wantKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: handle KnowsAt (%d,%v) want (%d,%v)",
							seed, p, k, t1, t2, kw, known, wantKW, wantKnown)
					}
					for xi, x := range batchXs {
						if holds[xi] != want[xi] {
							t.Fatalf("seed %d p%d#%d %s->%s x=%d: handle KnowsAt %v, Knows %v",
								seed, p, k, t1, t2, x, holds[xi], want[xi])
						}
					}
					after := h.Stats()
					if q, hits := after.BatchQueries-before.BatchQueries, after.BatchHits-before.BatchHits; q != int64(len(batchXs)) || hits != q-1 {
						t.Fatalf("seed %d p%d#%d: handle grid counted %d queries, %d hits; want %d, %d",
							seed, p, k, q, hits, len(batchXs), len(batchXs)-1)
					}
				}
			}
		})
	}
}

// TestKnowsAllocationGuard pins the satellite the weight-only rewrite
// bought: a warmed-up Extended.Knows builds no witness path, so after the
// first query of a source has sized the SPFA scratch, further threshold
// queries allocate nothing at all.
func TestKnowsAllocationGuard(t *testing.T) {
	net := model.MustComplete(6, 1, 5)
	r := sim.MustSimulate(sim.Config{
		Net: net, Horizon: 60, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
	})
	sigma := run.BasicNode{Proc: 1, Index: r.LastIndex(1)}
	ext, err := NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ps := ext.Past()
	var cands []run.BasicNode
	for p := model.ProcID(1); int(p) <= net.N(); p++ {
		for k := 1; k <= r.LastIndex(p); k++ {
			n := run.BasicNode{Proc: p, Index: k}
			if ps.Contains(n) {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) < 2 {
		t.Fatal("fixture has too few past nodes")
	}
	theta1 := run.At(cands[0])
	theta2 := run.At(cands[len(cands)-1])
	// Warm-up sizes the scratch arrays and materializes nothing further:
	// both endpoints are basic nodes of the past, already vertices.
	if _, err := ext.Knows(theta1, 1, theta2); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := ext.Knows(theta1, 1, theta2); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warmed-up Knows allocates %.0f times per query, want 0", got)
	}
}
