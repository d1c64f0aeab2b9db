// Command zigzag-experiments regenerates every experiment in EXPERIMENTS.md:
// the paper's figures (1, 2a, 2b, 3, 4/5, 6, 7, 8), theorems (1-4) and the
// coordination-protocol comparisons. Run with -exp to select one experiment,
// or with no flags for the full suite.
//
// Usage:
//
//	zigzag-experiments [-exp name] [-seeds n] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type experiment struct {
	name string
	desc string
	run  func(cfg config) error
}

type config struct {
	seeds   int
	verbose bool
	// out receives every experiment's report.
	out io.Writer
}

var experiments = []experiment{
	{"fig1", "Figure 1: two-legged fork coordination sweep", expFigure1},
	{"fig2a", "Figure 2a: zigzag pattern and Equation (1)", expFigure2a},
	{"fig2b", "Figure 2b: visible zigzag coordination", expFigure2b},
	{"fig3", "Figure 3: multi-hop fork weights", expFigure3},
	{"fig4", "Figures 4/5: three-fork sigma-visible zigzag", expFigure4},
	{"fig6", "Figure 6: bound edges of a single delivery", expFigure6},
	{"fig7", "Figure 7: bounds-graph path behind Equation (1)", expFigure7},
	{"fig8", "Figure 8: extended bounds graph anatomy", expFigure8},
	{"thm1", "Theorem 1: zigzag sufficiency (randomized)", expTheorem1},
	{"thm2", "Theorem 2: zigzag necessity / slow-run tightness", expTheorem2},
	{"thm3", "Theorem 3: knowledge precondition audit", expTheorem3},
	{"thm4", "Theorem 4: visible zigzag <=> knowledge / fast-run tightness", expTheorem4},
	{"ablation", "Ablation: extended graph vs local graph (no auxiliary vertices)", expAblation},
	{"late", "Protocols: Late<a-x->b> optimal vs asynchronous baseline", expLate},
	{"early", "Protocols: Early<b-x->a> optimal vs (impossible) baseline", expEarly},
	{"scale", "Scaling: graph sizes and query costs vs n", expScale},
}

func main() { os.Exit(execute(os.Args[1:], os.Stdout, os.Stderr)) }

// execute runs one invocation and returns its exit code: 0 when every
// selected experiment passes, 1 when one fails, 2 for bad flags or an
// unknown experiment.
func execute(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zigzag-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expName = fs.String("exp", "", "run a single experiment (default: all)")
		seeds   = fs.Int("seeds", 10, "number of random seeds for randomized experiments")
		verbose = fs.Bool("v", false, "verbose output")
		list    = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-7s %s\n", e.name, e.desc)
		}
		return 0
	}
	cfg := config{seeds: *seeds, verbose: *verbose, out: stdout}
	toRun := experiments
	if *expName != "" {
		toRun = nil
		var names []string
		for _, e := range experiments {
			if e.name == *expName {
				toRun = []experiment{e}
			}
			names = append(names, e.name)
		}
		if toRun == nil {
			sort.Strings(names)
			fmt.Fprintf(stderr, "unknown experiment %q; available: %v\n", *expName, names)
			return 2
		}
	}
	failures := 0
	for _, e := range toRun {
		fmt.Fprintf(stdout, "==== %s — %s ====\n", e.name, e.desc)
		if err := e.run(cfg); err != nil {
			failures++
			fmt.Fprintf(stdout, "FAIL %s: %v\n\n", e.name, err)
			continue
		}
		fmt.Fprintf(stdout, "PASS %s\n\n", e.name)
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failures)
		return 1
	}
	return 0
}
