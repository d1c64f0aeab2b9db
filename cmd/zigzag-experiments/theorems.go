package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/stats"
	"github.com/clockless/zigzag/internal/timing"
	"github.com/clockless/zigzag/internal/workload"
)

// expTheorem1 samples random instances, extracts zigzag patterns between
// window node pairs, verifies each against its run, and re-checks the
// implied precedence in a second environment with the same communication
// structure: the slow run, where every retained node keeps its identity but
// moves to the most adversarial time the bounds allow. A pattern whose
// weight claim survived only by accident of the original timing would fail
// there.
func expTheorem1(cfg config) error {
	patterns, slowChecks := 0, 0
	for seed := int64(1); seed <= int64(cfg.seeds); seed++ {
		in := workload.MustGenerate(workload.DefaultConfig(seed))
		r, err := in.Simulate(sim.NewRandom(seed * 13))
		if err != nil {
			return err
		}
		gb := bounds.NewBasic(r)
		window := in.WindowNodes(r)
		for i := 0; i < len(window) && i < 4; i++ {
			for j := 0; j < len(window) && j < 4; j++ {
				s1, s2 := window[i], window[len(window)-1-j]
				z, _, found, err := pattern.ExtractBasic(gb, s1, s2)
				if err != nil {
					return err
				}
				if !found {
					continue
				}
				patterns++
				if err := z.Verify(r); err != nil {
					return fmt.Errorf("seed %d (%s -> %s): %w", seed, s1, s2, err)
				}
				slow, err := timing.BuildSlow(gb, s2, in.Window)
				if err != nil {
					return err
				}
				err = z.Verify(slow.Run)
				switch {
				case err == nil:
					slowChecks++
				case errors.Is(err, pattern.ErrUnresolvable):
					// A fork leg outruns the slow run's shorter horizon.
				default:
					return fmt.Errorf("seed %d slow run (%s -> %s): %w", seed, s1, s2, err)
				}
			}
		}
	}
	fmt.Fprintf(cfg.out, "zigzag patterns extracted & verified: %d; re-verified in slow runs: %d\n",
		patterns, slowChecks)
	if patterns == 0 {
		return fmt.Errorf("no patterns extracted")
	}
	if slowChecks == 0 {
		return fmt.Errorf("no slow-run checks completed")
	}
	return nil
}

// expTheorem2 measures slow-run tightness: over random instances, the gap
// realized in r[T] equals the GB longest path for every reachable pair.
func expTheorem2(cfg config) error {
	pairs, exact := 0, 0
	var weights []int
	for seed := int64(1); seed <= int64(cfg.seeds); seed++ {
		in := workload.MustGenerate(workload.DefaultConfig(seed))
		r, err := in.Simulate(sim.NewRandom(seed * 7))
		if err != nil {
			return err
		}
		gb := bounds.NewBasic(r)
		window := in.WindowNodes(r)
		if len(window) == 0 {
			continue
		}
		sigma2 := window[len(window)-1]
		slow, err := timing.BuildSlow(gb, sigma2, 0)
		if err != nil {
			return err
		}
		dist, err := gb.DistancesInto(sigma2)
		if err != nil {
			return err
		}
		for _, sigma1 := range window {
			v, err := gb.Vertex(sigma1)
			if err != nil {
				return err
			}
			if dist[v] == graph.NegInf || dist[v] < 0 {
				continue
			}
			gap, err := slow.Gap(sigma1)
			if err != nil {
				return err
			}
			pairs++
			weights = append(weights, gap)
			if int64(gap) == dist[v] {
				exact++
			}
		}
	}
	fmt.Fprintf(cfg.out, "pairs: %d; slow-run gap == longest path: %d (must be all)\n", pairs, exact)
	fmt.Fprintf(cfg.out, "bound weights: %s\n", stats.SummarizeInts(weights))
	if pairs == 0 || exact != pairs {
		return fmt.Errorf("tightness failed: %d/%d", exact, pairs)
	}
	return nil
}

// expTheorem3 audits Protocol 2 decisions: at every action node the
// required knowledge held, and at no earlier node did it hold (the protocol
// is optimal by construction; the audit recomputes both sides).
func expTheorem3(cfg config) error {
	scenarios := []*scenario.Scenario{
		scenario.Figure1(scenario.DefaultFigure1()),
		scenario.Figure2b(scenario.DefaultFigure2()),
		scenario.Figure4(scenario.DefaultFigure4()),
		scenario.Trains(3),
		scenario.Takeoff(4),
		scenario.Circuits(6),
	}
	audited := 0
	for _, sc := range scenarios {
		for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(5)} {
			r, err := sc.Simulate(pol)
			if err != nil {
				return err
			}
			out, err := sc.Task.RunOptimal(r)
			if err != nil {
				return err
			}
			if !out.Acted {
				return fmt.Errorf("%s/%s: protocol never acted", sc.Name, pol.Name())
			}
			w, err := sc.Task.Wire(r)
			if err != nil {
				return err
			}
			// Knowledge of the precedence held at the action node
			// (Theorem 3's necessary condition) and the realized gap obeys
			// the spec in the ground-truth run.
			ext, err := bounds.NewExtended(r, out.ActNode)
			if err != nil {
				return err
			}
			var t1, t2 run.GeneralNode
			if sc.Task.Kind.String() == "Late" {
				t1, t2 = w.ANode, run.At(out.ActNode)
			} else {
				t1, t2 = run.At(out.ActNode), w.ANode
			}
			ok, err := ext.Knows(t1, sc.Task.X, t2)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("%s/%s: acted without knowledge", sc.Name, pol.Name())
			}
			// Optimality: no earlier node of B knew enough.
			for k := 1; k < out.ActNode.Index; k++ {
				earlier := run.BasicNode{Proc: out.ActNode.Proc, Index: k}
				extE, err := bounds.NewExtended(r, earlier)
				if err != nil {
					return err
				}
				if !extE.Past().Contains(w.SigmaC) {
					continue
				}
				var e1, e2 run.GeneralNode
				if sc.Task.Kind.String() == "Late" {
					e1, e2 = w.ANode, run.At(earlier)
				} else {
					e1, e2 = run.At(earlier), w.ANode
				}
				okE, err := extE.Knows(e1, sc.Task.X, e2)
				if err != nil {
					return err
				}
				if okE {
					return fmt.Errorf("%s/%s: node %s already knew", sc.Name, pol.Name(), earlier)
				}
			}
			audited++
		}
	}
	fmt.Fprintf(cfg.out, "scenario/policy decisions audited: %d (knowledge held at action, never earlier)\n", audited)
	return nil
}

// expTheorem4 measures fast-run tightness: kw(sigma, theta1, theta2) equals
// the realized gap in the 0-fast run for every known pair, and witnesses
// verify as sigma-visible zigzags.
func expTheorem4(cfg config) error {
	pairs, exact, witnesses := 0, 0, 0
	for seed := int64(1); seed <= int64(cfg.seeds); seed++ {
		in := workload.MustGenerate(workload.DefaultConfig(seed))
		r, err := in.Simulate(sim.NewRandom(seed * 17))
		if err != nil {
			return err
		}
		window := in.WindowNodes(r)
		if len(window) == 0 {
			continue
		}
		sigma := window[len(window)-1]
		ps, err := run.ViewOf(r, sigma)
		if err != nil {
			return err
		}
		var cands []run.BasicNode
		for _, n := range window {
			if ps.Contains(n) && !n.IsInitial() {
				cands = append(cands, n)
			}
		}
		if len(cands) > 4 {
			cands = cands[len(cands)-4:]
		}
		for _, s1 := range cands {
			var fast *timing.Fast
			for _, s2 := range cands {
				ext, err := bounds.NewExtended(r, sigma)
				if err != nil {
					return err
				}
				witness, kw, known, err := pattern.KnowledgeWitness(ext, run.At(s1), run.At(s2))
				if err != nil {
					return err
				}
				if !known {
					continue
				}
				pairs++
				if err := witness.VerifyVisible(r); err == nil {
					witnesses++
				} else if !errors.Is(err, pattern.ErrUnresolvable) {
					return fmt.Errorf("seed %d witness(%s,%s): %w", seed, s1, s2, err)
				}
				if fast == nil {
					fast, err = timing.BuildFast(r, sigma, run.At(s1), 0, 0)
					if err != nil {
						return fmt.Errorf("seed %d fast(%s): %w", seed, s1, err)
					}
				}
				gap, err := fast.Gap(run.At(s2))
				if err != nil {
					return err
				}
				if gap == kw {
					exact++
				} else {
					return fmt.Errorf("seed %d: kw(%s,%s)=%d but fast gap=%d", seed, s1, s2, kw, gap)
				}
			}
		}
	}
	fmt.Fprintf(cfg.out, "known pairs: %d; fast-run gap == knowledge weight: %d; visible witnesses verified: %d\n",
		pairs, exact, witnesses)
	if pairs == 0 {
		return fmt.Errorf("no pairs")
	}
	return nil
}

// expScale reports graph sizes and query costs against network size.
func expScale(cfg config) error {
	fmt.Fprintln(cfg.out, "    n | nodes |  GB edges |  GE edges | kw query")
	for _, n := range []int{4, 8, 16, 32} {
		wcfg := workload.DefaultConfig(int64(n))
		wcfg.Procs = n
		wcfg.ExtraChannels = 2 * n
		in := workload.MustGenerate(wcfg)
		r, err := in.Simulate(sim.NewRandom(int64(n)))
		if err != nil {
			return err
		}
		gb := bounds.NewBasic(r)
		window := in.WindowNodes(r)
		if len(window) < 2 {
			continue
		}
		sigma := window[len(window)-1]
		start := time.Now()
		ext, err := bounds.NewExtended(r, sigma)
		if err != nil {
			return err
		}
		theta1 := run.At(window[0])
		var kwDur time.Duration
		if ps := ext.Past(); ps.Contains(window[0]) && !window[0].IsInitial() {
			t0 := time.Now()
			if _, _, _, err := ext.KnowledgeWeight(theta1, run.At(sigma)); err != nil {
				return err
			}
			kwDur = time.Since(t0)
		}
		fmt.Fprintf(cfg.out, "%5d | %5d | %9d | %9d | %8s (build+query %s)\n",
			n, r.NumNodes(), gb.NumEdges(), ext.NumEdges(), kwDur, time.Since(start))
	}
	return nil
}
