package bounds

import (
	"errors"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// TestNewBasicAllocationGuard keeps the dense GB(r) construction
// allocation-light, mirroring sim.TestSimulateAllocationGuard: the graph is
// built in two passes over precomputed degree tables, so the allocation
// count must stay a small constant — vertex/degree tables plus the two
// adjacency backing arrays — independent of how many edges the run
// produces. A regression to per-edge metadata maps or adjacency append
// churn trips this immediately.
func TestNewBasicAllocationGuard(t *testing.T) {
	net := model.MustComplete(6, 1, 5)
	r := sim.MustSimulate(sim.Config{
		Net: net, Horizon: 60, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
	})
	if len(r.Deliveries()) == 0 {
		t.Fatal("fixture run has no deliveries")
	}
	const limit = 16
	got := testing.AllocsPerRun(20, func() {
		gb := NewBasic(r)
		if gb.NumEdges() == 0 {
			t.Fatal("no edges")
		}
	})
	if got > limit {
		t.Errorf("NewBasic allocates %.0f times per run, want <= %d", got, limit)
	}
}

// TestNewBasicAllocationsFlatInRunSize pins the stronger property behind the
// scaling benchmarks: the allocation count does not grow with the run.
func TestNewBasicAllocationsFlatInRunSize(t *testing.T) {
	alloc := func(n int, horizon model.Time) float64 {
		net := model.MustComplete(n, 1, 4)
		r := sim.MustSimulate(sim.Config{
			Net: net, Horizon: horizon, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
		})
		return testing.AllocsPerRun(10, func() { NewBasic(r) })
	}
	small := alloc(3, 20)
	large := alloc(8, 80)
	if large > small+4 {
		t.Errorf("allocations grow with run size: %.0f (n=3,h=20) vs %.0f (n=8,h=80)", small, large)
	}
}

// TestExtendedRejectsUnmodeledChannel pins the error path for a receipt
// over a channel the network does not model: the view rejects it with
// run.ErrChannelMissing and stays as it was, so NewExtendedFromView only
// ever sees resolved channels.
func TestExtendedRejectsUnmodeledChannel(t *testing.T) {
	// No channel 3->2.
	net := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).MustBuild()
	st := run.NewStore(net)
	from, err := st.LocalView(3).Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	receiver := st.LocalView(2)
	if _, err := receiver.Absorb([]run.BasicNode{from}, nil); !errors.Is(err, run.ErrChannelMissing) {
		t.Fatalf("got %v, want run.ErrChannelMissing", err)
	}
	e, err := NewExtendedFromView(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.View().Deliveries()); got != 0 {
		t.Fatalf("rejected receipt left %d deliveries in the view", got)
	}
}
