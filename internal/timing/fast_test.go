package timing

import (
	"errors"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// pickSigma returns a node with a rich past: the last window node whose
// past contains nodes of at least half the processes.
func pickSigma(t *testing.T, r *run.Run, window []run.BasicNode) run.BasicNode {
	t.Helper()
	for i := len(window) - 1; i >= 0; i-- {
		ps, err := run.ViewOf(r, window[i])
		if err != nil {
			t.Fatal(err)
		}
		procs := 0
		for _, p := range r.Net().Procs() {
			if b, ok := ps.Boundary(p); ok && !b.IsInitial() {
				procs++
			}
		}
		if procs*2 >= r.Net().N() {
			return window[i]
		}
	}
	return window[len(window)-1]
}

// TestFastRunTightness is the executable content of Theorem 4's necessity
// direction: for sigma-recognized theta1, theta2, the knowledge weight
// computed on the extended bounds graph is realized with equality by the
// 0-fast run — a legal run indistinguishable from r at sigma. Hence no
// stronger bound is known, and the witness zigzag extracted from the
// constraint path is the heaviest sigma-visible one.
func TestFastRunTightness(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		in := workload.MustGenerate(workload.DefaultConfig(seed))
		r, err := in.Simulate(sim.NewRandom(seed * 17))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		window := in.WindowNodes(r)
		if len(window) == 0 {
			continue
		}
		sigma := pickSigma(t, r, window)
		ps, err := run.ViewOf(r, sigma)
		if err != nil {
			t.Fatal(err)
		}
		// Candidate theta1/theta2: non-initial past nodes in the window.
		var candidates []run.BasicNode
		for _, n := range window {
			if ps.Contains(n) && !n.IsInitial() {
				candidates = append(candidates, n)
			}
		}
		if len(candidates) < 2 {
			continue
		}
		if len(candidates) > 5 {
			candidates = candidates[len(candidates)-5:]
		}
		pairs, equalities := 0, 0
		for _, s1 := range candidates {
			theta1 := run.At(s1)
			var fast *Fast
			for _, s2 := range candidates {
				theta2 := run.At(s2)
				ext, err := bounds.NewExtended(r, sigma)
				if err != nil {
					t.Fatal(err)
				}
				witness, kw, known, err := pattern.KnowledgeWitness(ext, theta1, theta2)
				if err != nil {
					t.Fatalf("seed %d: kw(%s,%s): %v", seed, theta1, theta2, err)
				}
				if !known {
					continue
				}
				pairs++
				// Soundness: the bound holds in the recorded run itself.
				gapHere := r.MustTime(s2) - r.MustTime(s1)
				if gapHere < kw {
					t.Errorf("seed %d: kw(%s,%s)=%d but realized gap in r is %d",
						seed, theta1, theta2, kw, gapHere)
				}
				// The witness verifies as a sigma-visible zigzag.
				if err := witness.VerifyVisible(r); err != nil &&
					!errors.Is(err, pattern.ErrUnresolvable) {
					t.Errorf("seed %d: witness(%s,%s): %v", seed, theta1, theta2, err)
				}
				// Tightness: the fast run achieves the bound with equality.
				if fast == nil {
					fast, err = BuildFast(r, sigma, theta1, 0, 0)
					if err != nil {
						t.Fatalf("seed %d: BuildFast(%s): %v", seed, theta1, err)
					}
					if err := run.SameView(r, fast.Run, sigma); err != nil {
						t.Fatalf("seed %d: fast run view: %v", seed, err)
					}
				}
				gap, err := fast.Gap(theta2)
				if err != nil {
					t.Fatalf("seed %d: fast gap(%s): %v", seed, theta2, err)
				}
				if gap != kw {
					t.Errorf("seed %d: sigma=%s theta1=%s theta2=%s: kw=%d fast gap=%d",
						seed, sigma, theta1, theta2, kw, gap)
				} else {
					equalities++
				}
			}
		}
		if pairs == 0 {
			t.Logf("seed %d: no known pairs (sparse instance)", seed)
		}
	}
}

// TestFastRunGeneralNodes repeats the tightness check with genuine general
// nodes: theta1 and theta2 carry one- and two-hop chains off past nodes.
func TestFastRunGeneralNodes(t *testing.T) {
	for seed := int64(2); seed <= 8; seed += 3 {
		in := workload.MustGenerate(workload.DefaultConfig(seed))
		r, err := in.Simulate(sim.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		window := in.WindowNodes(r)
		if len(window) == 0 {
			continue
		}
		sigma := pickSigma(t, r, window)
		ps, err := run.ViewOf(r, sigma)
		if err != nil {
			t.Fatal(err)
		}
		net := r.Net()
		// Build general nodes: for past nodes, extend by one or two hops.
		var generals []run.GeneralNode
		for _, n := range window {
			if !ps.Contains(n) || n.IsInitial() {
				continue
			}
			generals = append(generals, run.At(n))
			for _, q := range net.Out(n.Proc) {
				g := run.At(n).Hop(q)
				generals = append(generals, g)
				if outs := net.Out(q); len(outs) > 0 {
					generals = append(generals, g.Hop(outs[0]))
				}
				break
			}
		}
		if len(generals) > 8 {
			generals = generals[len(generals)-8:]
		}
		for _, theta1 := range generals {
			var fast *Fast
			for _, theta2 := range generals {
				ext, err := bounds.NewExtended(r, sigma)
				if err != nil {
					t.Fatal(err)
				}
				kw, _, known, err := ext.KnowledgeWeight(theta1, theta2)
				if err != nil {
					t.Fatalf("seed %d: kw(%s,%s): %v", seed, theta1, theta2, err)
				}
				if !known {
					continue
				}
				if fast == nil {
					fast, err = BuildFast(r, sigma, theta1, 0, 0)
					if err != nil {
						t.Fatalf("seed %d: BuildFast(%s): %v", seed, theta1, err)
					}
				}
				gap, err := fast.Gap(theta2)
				if err != nil {
					continue // theta2's chain may outrun even the padded horizon
				}
				if gap != kw {
					t.Errorf("seed %d: sigma=%s theta1=%s theta2=%s: kw=%d fast gap=%d",
						seed, sigma, theta1, theta2, kw, gap)
				}
			}
		}
	}
}

// TestFastRunSeparation checks Definition 23's gamma: nodes with no
// constraint path from theta1 are pushed at least gamma+1 time units before
// theta1's base — so for any x, a large enough gamma exhibits an
// indistinguishable run violating theta1 --x--> theta2, proving no bound is
// known (the "no path, no knowledge" half of Theorem 4).
func TestFastRunSeparation(t *testing.T) {
	in := workload.MustGenerate(workload.DefaultConfig(3))
	r, err := in.Simulate(sim.Eager{})
	if err != nil {
		t.Fatal(err)
	}
	window := in.WindowNodes(r)
	sigma := pickSigma(t, r, window)
	ps, err := run.ViewOf(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := bounds.NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	var theta1 run.GeneralNode
	var unreachable []run.BasicNode
	found := false
	for _, s1 := range window {
		if !ps.Contains(s1) || s1.IsInitial() {
			continue
		}
		for _, s2 := range window {
			if !ps.Contains(s2) || s2.IsInitial() || s1 == s2 {
				continue
			}
			_, _, known, err := ext.KnowledgeWeight(run.At(s1), run.At(s2))
			if err != nil {
				t.Fatal(err)
			}
			if !known {
				theta1 = run.At(s1)
				unreachable = append(unreachable, s2)
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("instance has constraint paths between all past pairs")
	}
	const gamma = 50
	fast, err := BuildFast(r, sigma, theta1, gamma, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s2 := range unreachable {
		gap, err := fast.Gap(run.At(s2))
		if err != nil {
			t.Fatal(err)
		}
		if gap > -gamma {
			t.Errorf("unreachable %s: gap %d, want <= -gamma = %d", s2, gap, -gamma)
		}
	}
}

// TestFastRunRejectsInitialTheta: Theorem 4 requires time(theta1) > 0; the
// construction must refuse initial nodes.
func TestFastRunRejectsInitialTheta(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	r, err := sim.Simulate(sim.Config{
		Net: net, Horizon: 30, Policy: sim.Eager{},
		Externals: sim.GoAt(1, 1, "go"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sigma := run.BasicNode{Proc: 2, Index: 1}
	if !r.Appears(sigma) {
		t.Fatal("flood never reached process 2")
	}
	_, err = BuildFast(r, sigma, run.At(run.BasicNode{Proc: 2, Index: 0}), 0, 0)
	if !errors.Is(err, ErrInitialTheta) {
		t.Errorf("got %v, want ErrInitialTheta", err)
	}
}

// TestFastRunGammaPreservesKnownGaps: for pairs with a constraint path, the
// realized gap is gamma-independent (the base offset shifts every reachable
// node uniformly), so tightness holds at any separation parameter.
func TestFastRunGammaPreservesKnownGaps(t *testing.T) {
	in := workload.MustGenerate(workload.DefaultConfig(7))
	r, err := in.Simulate(sim.NewRandom(70))
	if err != nil {
		t.Fatal(err)
	}
	window := in.WindowNodes(r)
	sigma := pickSigma(t, r, window)
	ps, err := run.ViewOf(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	var theta1 run.GeneralNode
	found := false
	for _, n := range window {
		if ps.Contains(n) && !n.IsInitial() {
			theta1 = run.At(n)
			found = true
			break
		}
	}
	if !found {
		t.Skip("no usable theta1")
	}
	ext, err := bounds.NewExtended(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	kw, _, known, err := ext.KnowledgeWeight(theta1, run.At(sigma))
	if err != nil || !known {
		t.Skip("sigma not reachable from theta1")
	}
	for _, gamma := range []int{0, 3, 25} {
		fast, err := BuildFast(r, sigma, theta1, gamma, 0)
		if err != nil {
			t.Fatalf("gamma=%d: %v", gamma, err)
		}
		gap, err := fast.Gap(run.At(sigma))
		if err != nil {
			t.Fatal(err)
		}
		if gap != kw {
			t.Errorf("gamma=%d: gap %d != kw %d", gamma, gap, kw)
		}
	}
}
