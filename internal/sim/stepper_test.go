package sim_test

import (
	"runtime"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// TestStepperHoldsOneTick pins the stepper's bounded memory on the longest
// schedule the sweeps run, coord-heavy-m16 under the heavy-tail policy: every
// Step yields exactly one tick's batches — at most one per process, in
// process order, from a buffer that never grows past n — ticks strictly
// increase, and the batches number exactly the run's non-initial nodes.
// A stepper on a larger network finishes first, so the checked stepper
// schedules in the scratch it hands over.
func TestStepperHoldsOneTick(t *testing.T) {
	sc := scenario.MultiAgentHeavy(16)
	n := sc.Net.N()
	sim.DrainFreeScratch()
	if _, err := sim.Simulate(sim.Config{Net: model.MustComplete(n+8, 1, 2), Horizon: 6, Externals: sim.GoAt(1, 1, "go")}); err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewStepper(sim.Config{Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewHeavyTail(3), Externals: sc.Externals})
	if err != nil {
		t.Fatal(err)
	}
	last, total, steps := model.Time(0), 0, 0
	for {
		batches, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if batches == nil {
			break
		}
		steps++
		if len(batches) == 0 || len(batches) > n || cap(batches) > n {
			t.Fatalf("step %d: %d batches in a buffer of %d, want 1..%d", steps, len(batches), cap(batches), n)
		}
		tick := batches[0].Time
		if tick <= last {
			t.Fatalf("step %d: tick %d after tick %d", steps, tick, last)
		}
		for i, b := range batches {
			if b.Time != tick || (i > 0 && b.Proc <= batches[i-1].Proc) {
				t.Fatalf("step %d: batch %d is (proc %d, t=%d) in tick %d", steps, i, b.Proc, b.Time, tick)
			}
		}
		last = tick
		total += len(batches)
	}
	r := s.Finish()
	if want := r.NumNodes() - n; total != want {
		t.Fatalf("stepped %d batches, the run holds %d non-initial nodes", total, want)
	}
	if steps < 100 {
		t.Fatalf("only %d ticks stepped: the schedule is not long", steps)
	}
}

// TestRecordingBytesPerDelivery bounds what recording costs per message on
// the longest schedule the sweeps run, coord-heavy-m16 under the heavy-tail
// policy: compact 16-byte delivery records and 12-byte in-flight arrivals
// keep a whole simulation, tables and buckets included, within 50 bytes
// allocated per recorded delivery.
func TestRecordingBytesPerDelivery(t *testing.T) {
	sc := scenario.MultiAgentHeavy(16)
	cfg := sim.Config{Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewHeavyTail(7), Externals: sc.Externals}
	const runs, limit = 3, 50.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	deliveries := 0
	for i := 0; i < runs; i++ {
		r, err := sim.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		deliveries += r.NumDeliveries()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(deliveries); got > limit {
		t.Errorf("recording allocates %.1f bytes per delivery, want <= %.0f", got, limit)
	} else {
		t.Logf("%.1f bytes per delivery over %d deliveries", got, deliveries)
	}
}
