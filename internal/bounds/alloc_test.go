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
// over a channel the network does not model: the recorder rejects it with
// run.ErrChannelMissing and the run stays as it was, so
// NewExtendedFromView only ever sees resolved channels.
func TestExtendedRejectsUnmodeledChannel(t *testing.T) {
	// No channel 3->2.
	net := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).MustBuild()
	receiver := unmodeledReceipt(t, net)
	e, err := NewExtendedFromView(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.Past().Deliveries()); got != 0 {
		t.Fatalf("rejected receipt left %d deliveries in the view", got)
	}
}

// unmodeledReceipt records a run over net, which must lack the channel
// 3->2, in which process 3 absorbs an external and then sends to process 2
// over that missing channel. It checks that the recorder rejects the
// receipt with run.ErrChannelMissing, recording nothing, and returns
// process 2's view of the run.
func unmodeledReceipt(t *testing.T, net *model.Network) *run.View {
	t.Helper()
	rec, err := run.NewRecorder(net, 10)
	if err != nil {
		t.Fatal(err)
	}
	from, err := rec.Append(3, 1, nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := run.ViewOf(rec.Run(), run.BasicNode{Proc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Append(2, 2, []run.Arrival{{From: from, Send: 1, Chan: net.ChanIDOf(3, 2)}}, nil); !errors.Is(err, run.ErrChannelMissing) {
		t.Fatalf("receipt over 3->2: %v, want run.ErrChannelMissing", err)
	}
	if _, err := receiver.Advance(rec.Run()); !errors.Is(err, run.ErrNoNode) {
		t.Fatalf("rejected receipt recorded a node: %v", err)
	}
	return receiver
}
