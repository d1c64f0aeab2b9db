package main

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/stats"
	"github.com/clockless/zigzag/internal/workload"
)

// expAblation quantifies the value of the extended bounds graph's auxiliary
// horizon vertices (the paper's novel structure, Section 5.1) by comparing
// knowledge computed on GE(r, sigma) against knowledge computed on the
// induced local graph GB(r, sigma) alone, over random instances.
func expAblation(cfg config) error {
	pairs, onlyExtended, stronger := 0, 0, 0
	var deltas []int
	for seed := int64(1); seed <= int64(cfg.seeds); seed++ {
		in := workload.MustGenerate(workload.DefaultConfig(seed))
		r, err := in.Simulate(sim.NewRandom(seed * 11))
		if err != nil {
			return err
		}
		window := in.WindowNodes(r)
		if len(window) < 2 {
			continue
		}
		sigma := window[len(window)-1]
		ext, err := bounds.NewExtended(r, sigma)
		if err != nil {
			return err
		}
		ps := ext.Past()
		var cands []run.BasicNode
		for _, n := range window {
			if ps.Contains(n) && !n.IsInitial() {
				cands = append(cands, n)
			}
		}
		if len(cands) > 6 {
			cands = cands[len(cands)-6:]
		}
		for _, s1 := range cands {
			for _, s2 := range cands {
				fullKW, _, fullKnown, err := ext.KnowledgeWeight(run.At(s1), run.At(s2))
				if err != nil {
					return err
				}
				localKW, localKnown, err := ext.LocalWeight(s1, s2)
				if err != nil {
					return err
				}
				if !fullKnown {
					continue
				}
				pairs++
				switch {
				case !localKnown:
					onlyExtended++
				case fullKW > localKW:
					stronger++
					deltas = append(deltas, fullKW-localKW)
				}
			}
		}
	}
	fmt.Fprintf(cfg.out, "known pairs (extended graph): %d\n", pairs)
	fmt.Fprintf(cfg.out, "  bound exists ONLY with auxiliary vertices: %d\n", onlyExtended)
	fmt.Fprintf(cfg.out, "  bound strictly stronger with them:         %d\n", stronger)
	if len(deltas) > 0 {
		fmt.Fprintf(cfg.out, "  improvement when stronger: %s\n", stats.SummarizeInts(deltas))
	}

	// The headline case: Figure 1's coordination bound lives entirely in
	// the auxiliary vertices (A's receipt is beyond B's horizon).
	sc := scenario.Figure1(scenario.DefaultFigure1())
	r, err := sc.Simulate(sim.Eager{})
	if err != nil {
		return err
	}
	sigma := run.BasicNode{Proc: sc.Proc("B"), Index: 1}
	ext, err := bounds.NewExtended(r, sigma)
	if err != nil {
		return err
	}
	aNode := run.At(run.BasicNode{Proc: sc.Proc("C"), Index: 1}).Hop(sc.Proc("A"))
	kw, _, known, err := ext.KnowledgeWeight(aNode, run.At(sigma))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "Figure 1 decision bound: extended kw = %d (known=%v); ", kw, known)
	fmt.Fprintln(cfg.out, "without auxiliary vertices the a-node is not even expressible.")
	if !known {
		return fmt.Errorf("figure-1 bound lost")
	}
	return nil
}
