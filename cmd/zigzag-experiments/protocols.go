package main

import (
	"fmt"

	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// expLate sweeps x on a network where both the optimal protocol and the
// asynchronous baseline can act — a Figure 2b variant with a feedback
// channel A -> B so the baseline has a chain to wait for. The shape: the
// optimal protocol acts no later than the baseline everywhere, strictly
// earlier once x exceeds what the direct chain's prefix certifies, and
// keeps acting for x beyond the baseline's reach.
func expLate(cfg config) error {
	fmt.Fprintln(cfg.out, "  x | optimal acts at | baseline acts at | optimal wins by")
	p := scenario.DefaultFigure2()
	for x := 1; x <= p.EquationOne()+2; x++ {
		px := p
		px.X = x
		sc := scenario.Figure2b(px)
		// Feedback channel from A to B gives the baseline a chain to use —
		// but a weak one (L=1), so chains certify far less than zigzags.
		nb, err := sc.WithChannel("A", "B", 1, 6)
		if err != nil {
			return err
		}
		r, err := nb.Simulate(sim.Lazy{})
		if err != nil {
			return err
		}
		opt, err := nb.Task.RunOptimal(r)
		if err != nil {
			return err
		}
		base, err := nb.Task.RunBaseline(r)
		if err != nil {
			return err
		}
		optAt, baseAt, wins := "-", "-", "-"
		if opt.Acted {
			optAt = fmt.Sprintf("t=%d", opt.ActTime)
		}
		if base.Acted {
			baseAt = fmt.Sprintf("t=%d", base.ActTime)
		}
		if opt.Acted && base.Acted {
			wins = fmt.Sprintf("%d", base.ActTime-opt.ActTime)
			if opt.ActTime > base.ActTime {
				return fmt.Errorf("x=%d: optimal acted after the baseline", x)
			}
		}
		if base.Acted && !opt.Acted {
			return fmt.Errorf("x=%d: baseline acted but optimal did not", x)
		}
		fmt.Fprintf(cfg.out, "%3d | %-15s | %-16s | %s\n", x, optAt, baseAt, wins)
	}
	fmt.Fprintln(cfg.out, "shape: optimal acts no later than the baseline and covers larger x.")
	return nil
}

// expEarly sweeps x on the takeoff scenario: the optimal protocol acts up
// to the fork weight; the baseline can never act.
func expEarly(cfg config) error {
	fmt.Fprintln(cfg.out, "  x | optimal acts | lead (lazy) | baseline")
	for x := 1; x <= 8; x++ {
		sc := scenario.Takeoff(x)
		acted := true
		lead := "-"
		for _, pol := range []sim.Policy{sim.Eager{}, sim.Lazy{}, sim.NewRandom(3)} {
			r, err := sc.Simulate(pol)
			if err != nil {
				return err
			}
			out, err := sc.Task.RunOptimal(r)
			if err != nil {
				return err
			}
			if !out.Acted {
				acted = false
				continue
			}
			if pol.Name() == "lazy" {
				lead = fmt.Sprintf("%d", -out.Gap)
			}
			base, err := sc.Task.RunBaseline(r)
			if err != nil {
				return err
			}
			if base.Acted {
				return fmt.Errorf("x=%d: baseline solved Early", x)
			}
		}
		want := x <= 9-3 // L_CA - U_CB
		if acted != want {
			return fmt.Errorf("x=%d: acted=%v, want %v", x, acted, want)
		}
		mark := "no"
		if acted {
			mark = "yes"
		}
		fmt.Fprintf(cfg.out, "%3d | %-12s | %-11s | never\n", x, mark, lead)
	}
	fmt.Fprintln(cfg.out, "shape: Early feasible exactly up to the fork weight; impossible asynchronously.")
	return nil
}
