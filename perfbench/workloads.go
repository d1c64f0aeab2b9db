package main

import (
	"fmt"
	"math/rand"

	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sweep"
)

// The workloads are slices of the flagship sweep, `zigzag-sim -sweep -live
// -coord-m 16 -seeds 2`, plus the grid of `zigzag-sim -sweep -sweep-x`. The
// flagship takes about 45 s on one worker, too long to time repeatedly, so
// each workload prices one part of it, and each one bypasses the mechanisms
// the others exercise:
//
//   - offline: the flagship's sim cells — every registry scenario up to
//     coord-m16 under every default policy — at one seed: the schedule layer
//     and the offline optimum (coord.Task.RunOptimal), no knowledge engine.
//     As in the flagship, coord-early-m16's optimum is most of it.
//   - live: the flagship's seeded live cells of coord-m16 and
//     coord-early-m16 (random and heavy-tail policies, one seed) — run.View
//     absorption, handle sync and Protocol2 queries; seed-sensitive, so the
//     standing-prefix cache is bypassed.
//   - heavy: the flagship's replay-only long-horizon family, coord-heavy-m4
//     and coord-heavy-m16 at eight times the horizon, under the heavy-tail
//     policy at one seed. This family is most of the flagship's time.
//   - prefix: live cells of coord-m8 and coord-early-m8 under the
//     deterministic eager and lazy policies across eight seeds — every seed
//     records the same run, so all but one cell per (network, policy) stamp
//     a frozen standing prefix.
//   - xbatch: the `-sweep-x` grid's coord-m16 and coord-early-m16 variants
//     over an eight-point x axis under the random policy — one batched
//     execution answers every x row (live.Protocol2.XGrid, sweep x-fanout).
//
// The seed picks the policy seeds only. The networks are the repository's
// canonical fixtures, so every seed prices the same topologies.
//
// flagship, the whole flagship grid with the CLI's seeds 1 and 2, is not a
// timed workload: `--trace 1` on it gives the flagship's layer mix, to hold
// the timed workloads' mix against.
var workloadNames = []string{"offline", "live", "heavy", "prefix", "xbatch", "flagship"}

// flagshipM is the flagship's -coord-m: the multi-agent family ceiling.
const flagshipM = 16

// xAxis is the threshold axis of the xbatch workload.
var xAxis = []int{1, 2, 3, 4, 5, 6, 8, 10}

// policySeeds derives k distinct policy seeds from the workload seed.
func policySeeds(seed int64, k int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, 0, k)
	seen := make(map[int64]bool, k)
	for len(out) < k {
		s := 1 + rng.Int63n(1<<31)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// policies picks the named families out of sweep.DefaultPolicies.
func policies(names ...string) []sweep.PolicySpec {
	var out []sweep.PolicySpec
	for _, n := range names {
		for _, p := range sweep.DefaultPolicies() {
			if p.Name == n {
				out = append(out, p)
			}
		}
	}
	return out
}

// buildGrid constructs the workload's sweep grid from the seed: scenario
// construction (network generation, task derivation, registry assembly) is
// the benchmark's set-up work. Scenario lists come from sweep.Axes, as the
// CLI builds them. Workers is 1 so a run prices the sweep's own work rather
// than the host's scheduling of parallel cells.
func buildGrid(name string, seed int64) (*sweep.Grid, error) {
	g := &sweep.Grid{Workers: 1, LiveMode: sweep.ModeReplay}
	switch name {
	case "offline", "flagship":
		scs, err := sweep.Axes{MaxCoordM: flagshipM}.Scenarios()
		if err != nil {
			return nil, err
		}
		g.Scenarios = scs
		g.Policies = sweep.DefaultPolicies()
		g.Seeds = policySeeds(seed, 1)
		if name == "flagship" {
			// As `zigzag-sim -sweep -live -seeds 2` in replay mode: the
			// multi-agent scenarios are the live dimension, plus the
			// replay-only family.
			for _, sc := range scs {
				if len(sc.Tasks) > 0 {
					g.Live = append(g.Live, sc)
				}
			}
			g.Live = append(g.Live, scenario.ReplayFamily()...)
			g.Seeds = []int64{1, 2}
		}
	case "live":
		g.Live = []*scenario.Scenario{scenario.MultiAgent(16), scenario.MultiAgentEarly(16)}
		g.Policies = policies("random", "heavy")
		g.Seeds = policySeeds(seed, 1)
	case "heavy":
		g.Live = scenario.ReplayFamily()
		g.Policies = policies("heavy")
		g.Seeds = policySeeds(seed, 1)
	case "prefix":
		g.Live = []*scenario.Scenario{scenario.MultiAgent(8), scenario.MultiAgentEarly(8)}
		g.Policies = policies("eager", "lazy")
		g.Seeds = policySeeds(seed, 8)
	case "xbatch":
		scs, err := sweep.Axes{Xs: xAxis, MaxCoordM: 16}.Scenarios()
		if err != nil {
			return nil, err
		}
		for _, sc := range scs {
			if sc.XBase == "coord-m16" || sc.XBase == "coord-early-m16" {
				g.Live = append(g.Live, sc)
			}
		}
		g.Policies = policies("random")
		g.Seeds = policySeeds(seed, 1)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return g, nil
}
