package sweep_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// TestOversizedConfigsFailTyped: absurd bound scales and horizons too long
// to tabulate come back as typed errors from every layer — scenario
// scaling, the simulator, a live execution and a sweep cell — never as an
// allocation crash or a wrapped-around horizon.
func TestOversizedConfigsFailTyped(t *testing.T) {
	sc := scenario.Registry(0)["coord-m4"]
	huge, err := sc.ScaleBounds(1e7)
	if err != nil {
		t.Fatalf("scale 1e7: %v", err)
	}
	if _, err := sc.ScaleBounds(1e5); err != nil {
		t.Fatalf("scale 1e5: %v", err)
	}
	scale := func(f float64) func() error {
		return func() error { _, err := sc.ScaleBounds(f); return err }
	}
	replay := func(cfg live.Config) func() error {
		return func() error { _, err := live.Replay(cfg); return err }
	}
	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"scale NaN", scale(math.NaN()), scenario.ErrBadScale},
		{"scale +Inf", scale(math.Inf(1)), scenario.ErrBadScale},
		{"scale -Inf", scale(math.Inf(-1)), scenario.ErrBadScale},
		{"scale 0", scale(0), scenario.ErrBadScale},
		{"scale -2", scale(-2), scenario.ErrBadScale},
		{"scale 1e300", scale(1e300), scenario.ErrBadScale},
		{"simulate x1e7", func() error { _, err := huge.Simulate(sim.Eager{}); return err }, run.ErrBadHorizon},
		{"replay x1e7", replay(live.Config{Net: huge.Net, Horizon: huge.Horizon, Externals: huge.Externals}), run.ErrBadHorizon},
		{"replay nil network", replay(live.Config{Horizon: 10}), sim.ErrBadConfig},
		{"replay horizon 0", replay(live.Config{Net: sc.Net}), sim.ErrBadConfig},
		{"replay bad external", replay(live.Config{Net: sc.Net, Horizon: 10,
			Externals: []run.ExternalEvent{{Proc: 99, Time: 1, Label: "go"}}}), sim.ErrBadConfig},
		{"sweep cells x1e7", func() error {
			g := sweep.Grid{
				Scenarios: []*scenario.Scenario{huge},
				Live:      []*scenario.Scenario{huge},
				Policies:  sweep.DefaultPolicies(),
				Seeds:     []int64{1},
				Workers:   1,
			}
			results, err := g.Run()
			if err != nil {
				return err
			}
			for _, r := range results {
				if !errors.Is(r.Err, run.ErrBadHorizon) {
					return fmt.Errorf("cell %s/%s/%s: %v", r.Scenario, r.Mode, r.Policy, r.Err)
				}
			}
			return results[0].Err
		}, run.ErrBadHorizon},
	}
	for _, c := range cases {
		if err := c.run(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}
