package run

import (
	"fmt"
	"sort"
)

// SameView checks indistinguishability at sigma: r1 ~sigma r2 (Section 4.1).
// Under an FFIP, sigma's local state is determined by the structure of its
// causal past — which nodes it contains, which deliveries wired them
// together and which external inputs arrived — independent of real time.
// SameView verifies that sigma appears in both runs with structurally
// identical pasts and returns a descriptive error at the first difference.
func SameView(r1, r2 *Run, sigma BasicNode) error {
	if !r1.Appears(sigma) {
		return fmt.Errorf("run: %s does not appear in first run", sigma)
	}
	if !r2.Appears(sigma) {
		return fmt.Errorf("run: %s does not appear in second run", sigma)
	}
	p1, err := ViewOf(r1, sigma)
	if err != nil {
		return err
	}
	p2, err := ViewOf(r2, sigma)
	if err != nil {
		return err
	}
	if !p1.Equal(p2) {
		return fmt.Errorf("run: past(%s) differs: %d vs %d nodes", sigma, p1.Size(), p2.Size())
	}
	for _, node := range p1.Nodes() {
		in1 := senders(r1, node)
		in2 := senders(r2, node)
		if len(in1) != len(in2) {
			return fmt.Errorf("run: node %s inbox size differs: %d vs %d", node, len(in1), len(in2))
		}
		for i := range in1 {
			if in1[i] != in2[i] {
				return fmt.Errorf("run: node %s inbox differs: %s vs %s", node, in1[i], in2[i])
			}
		}
		ex1 := labels(r1, node)
		ex2 := labels(r2, node)
		if len(ex1) != len(ex2) {
			return fmt.Errorf("run: node %s externals differ: %v vs %v", node, ex1, ex2)
		}
		for i := range ex1 {
			if ex1[i] != ex2[i] {
				return fmt.Errorf("run: node %s externals differ: %v vs %v", node, ex1, ex2)
			}
		}
	}
	return nil
}

func senders(r *Run, node BasicNode) []BasicNode {
	ds := r.Inbox(node)
	out := make([]BasicNode, len(ds))
	for i, d := range ds {
		out[i] = d.From
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Index < out[j].Index
	})
	return out
}

func labels(r *Run, node BasicNode) []string {
	es := r.ExternalsAt(node)
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Label
	}
	sort.Strings(out)
	return out
}
