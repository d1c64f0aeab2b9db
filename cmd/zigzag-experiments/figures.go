package main

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/viz"
)

// expFigure1 sweeps the fork margin L_CB - (U_CA + x): B must act exactly
// when the margin is non-negative, under every policy, while the baseline
// never acts (there is no A->B chain).
func expFigure1(cfg config) error {
	base := scenario.DefaultFigure1()
	fmt.Fprintln(cfg.out, "margin = L_CB - U_CA - x | optimal acts | act time (lazy) | baseline")
	for margin := -2; margin <= 3; margin++ {
		p := base
		p.X = p.LCB - p.UCA - margin
		sc := scenario.Figure1(p)
		actedAll, actTime := true, 0
		for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(4)} {
			r, err := sc.Simulate(pol)
			if err != nil {
				return err
			}
			out, err := sc.Task.RunOptimal(r)
			if err != nil {
				return err
			}
			if !out.Acted {
				actedAll = false
			} else if pol.Name() == "lazy" {
				actTime = out.ActTime
			}
			if out.Acted != (margin >= 0) {
				return fmt.Errorf("margin %d, policy %s: acted=%v", margin, pol.Name(), out.Acted)
			}
		}
		rLazy, err := sc.Simulate(sim.Lazy{})
		if err != nil {
			return err
		}
		baseOut, err := sc.Task.RunBaseline(rLazy)
		if err != nil {
			return err
		}
		mark, at := "no", "-"
		if actedAll {
			mark, at = "yes", fmt.Sprintf("t=%d", actTime)
		}
		fmt.Fprintf(cfg.out, "%24d | %-12s | %-15s | acts=%v\n", margin, mark, at, baseOut.Acted)
	}
	fmt.Fprintln(cfg.out, "shape: B acts iff margin >= 0; asynchronous baseline never acts.")
	return nil
}

// expFigure2a verifies Equation (1): the heaviest zigzag from a to b weighs
// exactly Eq1 + 1, holds in every run, and the slow run meets it exactly.
func expFigure2a(cfg config) error {
	p := scenario.DefaultFigure2()
	sc := scenario.Figure2a(p)
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	w, err := sc.Task.Wire(r)
	if err != nil {
		return err
	}
	bNode := run.BasicNode{Proc: sc.Proc("B"), Index: 1}
	gb := bounds.NewBasic(r)
	z, weight, found, err := pattern.ExtractBasic(gb, w.ABasic, bNode)
	if err != nil || !found {
		return fmt.Errorf("extract: found=%v err=%v", found, err)
	}
	fmt.Fprintf(cfg.out, "Equation (1): -U_CA + L_CD - U_ED + L_EB = %d\n", p.EquationOne())
	fmt.Fprintf(cfg.out, "heaviest zigzag a -> b: wt = %d (= Eq1 + 1 from the strict junction at D)\n", weight)
	if weight != p.EquationOne()+1 {
		return fmt.Errorf("weight %d != Eq1+1 = %d", weight, p.EquationOne()+1)
	}
	if err := z.Verify(r); err != nil {
		return fmt.Errorf("zigzag verify: %w", err)
	}
	fmt.Fprint(cfg.out, viz.Zigzag(r.Net(), z))
	// Realized gaps across policies never undercut the zigzag weight.
	for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(9)} {
		r2, err := sc.Simulate(pol)
		if err != nil {
			return err
		}
		w2, err := sc.Task.Wire(r2)
		if err != nil {
			return err
		}
		gap := r2.MustTime(run.BasicNode{Proc: sc.Proc("B"), Index: 1}) - r2.MustTime(w2.ABasic)
		fmt.Fprintf(cfg.out, "policy %-7s realized gap t_b - t_a = %d (>= %d)\n", pol.Name(), gap, weight)
		if gap < weight {
			return fmt.Errorf("policy %s: gap %d < %d", pol.Name(), gap, weight)
		}
	}
	return nil
}

// expFigure2b runs Protocol 2 on the visible-zigzag scenario.
func expFigure2b(cfg config) error {
	p := scenario.DefaultFigure2()
	sc := scenario.Figure2b(p)
	fmt.Fprintf(cfg.out, "x = %d; Equation(1)+1 = %d; relay fork alone = %d (too weak)\n",
		p.X, p.EquationOne()+1, p.LCD+p.LDB-p.UCA)
	for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(11)} {
		r, err := sc.Simulate(pol)
		if err != nil {
			return err
		}
		out, err := sc.Task.RunOptimal(r)
		if err != nil {
			return err
		}
		if !out.Acted {
			return fmt.Errorf("policy %s: B never acted", pol.Name())
		}
		if err := out.Witness.VerifyVisible(r); err != nil {
			return fmt.Errorf("policy %s: witness: %w", pol.Name(), err)
		}
		fmt.Fprintf(cfg.out, "policy %-7s a at t=%d, b at t=%d, gap %d >= x; knew %d via %d-fork zigzag\n",
			pol.Name(), out.ATime, out.ActTime, out.Gap, out.KnownBound, out.Witness.Len())
	}
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	out, err := sc.Task.RunOptimal(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.out, "witness pattern (eager run):")
	fmt.Fprint(cfg.out, viz.Zigzag(r.Net(), &out.Witness.Zigzag))
	return nil
}

// expFigure3 sweeps fork leg lengths and checks wt(F) = L(p1) - U(p2).
func expFigure3(cfg config) error {
	fmt.Fprintln(cfg.out, "head hops | tail hops | L(head) | U(tail) | extracted wt | match")
	for _, hh := range []int{1, 2, 3} {
		for _, th := range []int{1, 2, 3} {
			p := scenario.Figure3Params{HeadHops: hh, TailHops: th, L: 2, U: 5, GoTime: 1}
			sc := scenario.Figure3(p)
			r, err := sc.Simulate(sim.Eager{})
			if err != nil {
				return err
			}
			gb := bounds.NewBasic(r)
			head := run.BasicNode{Proc: sc.Proc("HEAD"), Index: 1}
			tail := run.BasicNode{Proc: sc.Proc("TAIL"), Index: 1}
			if !r.Appears(head) || !r.Appears(tail) {
				return fmt.Errorf("hh=%d th=%d: chain did not complete", hh, th)
			}
			_, weight, found, err := pattern.ExtractBasic(gb, tail, head)
			if err != nil || !found {
				return fmt.Errorf("hh=%d th=%d: extract: %v", hh, th, err)
			}
			want := 2*hh - 5*th
			ok := weight == want
			fmt.Fprintf(cfg.out, "%9d | %9d | %7d | %7d | %12d | %v\n", hh, th, 2*hh, 5*th, weight, ok)
			if !ok {
				return fmt.Errorf("hh=%d th=%d: wt %d != %d", hh, th, weight, want)
			}
		}
	}
	return nil
}

// expFigure4 reproduces the three-fork sigma-visible zigzag.
func expFigure4(cfg config) error {
	p := scenario.DefaultFigure4()
	sc := scenario.Figure4(p)
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	out, err := sc.Task.RunOptimal(r)
	if err != nil {
		return err
	}
	if !out.Acted {
		return fmt.Errorf("B never acted")
	}
	if err := out.Witness.VerifyVisible(r); err != nil {
		return fmt.Errorf("witness: %w", err)
	}
	fmt.Fprintf(cfg.out, "B acted at t=%d (a at t=%d), knowing a bound of %d\n", out.ActTime, out.ATime, out.KnownBound)
	fmt.Fprintln(cfg.out, "sigma-visible witness:")
	fmt.Fprint(cfg.out, viz.Zigzag(r.Net(), &out.Witness.Zigzag))
	if out.Witness.Len() < 2 {
		return fmt.Errorf("witness has %d forks, want a multi-fork pattern", out.Witness.Len())
	}
	return nil
}

// expFigure6 prints the bounds-graph edges induced by one delivery.
func expFigure6(cfg config) error {
	sc := scenario.Figure6(2, 5)
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	gb := bounds.NewBasic(r)
	send := run.BasicNode{Proc: 1, Index: 1}
	recv := run.BasicNode{Proc: 2, Index: 1}
	wf, sf, _, err := gb.LongestBetween(send, recv)
	if err != nil {
		return err
	}
	wb, sb, _, err := gb.LongestBetween(recv, send)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "delivery i@%d => j@%d on channel [2,5]\n", r.MustTime(send), r.MustTime(recv))
	fmt.Fprintf(cfg.out, "forward constraint (weight L): %+d\n%s", wf, viz.Steps(sf))
	fmt.Fprintf(cfg.out, "backward constraint (weight -U): %+d\n%s", wb, viz.Steps(sb))
	if wf != 2 || wb != -5 {
		return fmt.Errorf("edges (%d, %d) != (2, -5)", wf, wb)
	}
	return nil
}

// expFigure7 prints the GB path that justifies Equation (1).
func expFigure7(cfg config) error {
	p := scenario.DefaultFigure2()
	sc := scenario.Figure2a(p)
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	w, err := sc.Task.Wire(r)
	if err != nil {
		return err
	}
	bNode := run.BasicNode{Proc: sc.Proc("B"), Index: 1}
	gb := bounds.NewBasic(r)
	weight, steps, found, err := gb.LongestBetween(w.ABasic, bNode)
	if err != nil || !found {
		return fmt.Errorf("no path: %v", err)
	}
	names := map[model.ProcID]string{
		sc.Proc("C"): "C", sc.Proc("E"): "E", sc.Proc("D"): "D",
		sc.Proc("A"): "A", sc.Proc("B"): "B",
	}
	fmt.Fprintln(cfg.out, viz.Timeline(r, names, 16))
	fmt.Fprintf(cfg.out, "longest GB path a -> b (weight %+d):\n%s", weight, viz.Steps(steps))
	return nil
}

// expFigure8 prints the anatomy of the extended bounds graph at B's
// decision node in the Figure 2b run.
func expFigure8(cfg config) error {
	p := scenario.DefaultFigure2()
	sc := scenario.Figure2b(p)
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	out, err := sc.Task.RunOptimal(r)
	if err != nil {
		return err
	}
	if !out.Acted {
		return fmt.Errorf("B never acted")
	}
	ext, err := bounds.NewExtended(r, out.ActNode)
	if err != nil {
		return err
	}
	fmt.Fprint(cfg.out, viz.ExtendedStats(ext))
	return nil
}
