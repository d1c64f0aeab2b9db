package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

func TestNetworkRoundTrip(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 2, 5).Chan(2, 3, 1, 1).Chan(3, 1, 4, 9).MustBuild()
	back, err := DecodeNetwork(EncodeNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != net.String() {
		t.Errorf("round trip: %s vs %s", back, net)
	}
}

func TestRunRoundTrip(t *testing.T) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	r := sc.MustSimulate(sim.NewRandom(6))
	var buf bytes.Buffer
	if err := WriteRun(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Structural identity: same deliveries, same node times, same verdicts.
	d1, d2 := r.Deliveries(), back.Deliveries()
	if len(d1) != len(d2) {
		t.Fatalf("deliveries %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Errorf("delivery %d: %v vs %v", i, d1[i], d2[i])
		}
	}
	// The loaded run supports the same coordination outcome.
	out1, err := sc.Task.RunOptimal(r)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := sc.Task.RunOptimal(back)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Acted != out2.Acted || out1.ActNode != out2.ActNode || out1.ActTime != out2.ActTime {
		t.Errorf("outcomes differ: %+v vs %+v", out1, out2)
	}
}

func TestDecodeRejectsIllegal(t *testing.T) {
	// Latency below the channel's lower bound.
	bad := `{
	  "network": {"procs": 2, "channels": [{"from":1,"to":2,"lower":3,"upper":5}]},
	  "horizon": 10,
	  "messages": [{"from":1,"to":2,"sent":1,"recv":2}],
	  "externals": [{"proc":1,"time":1,"label":"go"}]
	}`
	if _, err := ReadRun(strings.NewReader(bad)); err == nil {
		t.Fatal("illegal trace accepted")
	}
	// Missed deadline: node at 1 must flood by 6 within horizon 10.
	bad2 := `{
	  "network": {"procs": 2, "channels": [{"from":1,"to":2,"lower":3,"upper":5}]},
	  "horizon": 10,
	  "messages": [],
	  "externals": [{"proc":1,"time":1,"label":"go"}]
	}`
	if _, err := ReadRun(strings.NewReader(bad2)); err == nil {
		t.Fatal("deadline-violating trace accepted")
	}
	if _, err := ReadRun(strings.NewReader("{nonsense")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestEmptyRunRoundTrip(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	r, err := sim.Simulate(sim.Config{Net: net, Horizon: 5, Policy: sim.Eager{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRun(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 2 {
		t.Errorf("nodes = %d, want 2 initial", back.NumNodes())
	}
	if !back.Appears(run.BasicNode{Proc: 1, Index: 0}) {
		t.Error("initial node missing")
	}
}

// TestReadRunRejectsBadHorizon: a negative horizon, or one whose
// horizon-indexed tables would overflow, is a typed error, never a panic.
func TestReadRunRejectsBadHorizon(t *testing.T) {
	for _, horizon := range []string{"-5", "9223372036854775807", "4611686018427387904", "1000000000000"} {
		in := `{"network":{"procs":2,"channels":[{"from":1,"to":2,"lower":1,"upper":2}]},"horizon":` + horizon + `}`
		if _, err := ReadRun(strings.NewReader(in)); !errors.Is(err, run.ErrBadHorizon) {
			t.Errorf("horizon %s: got %v, want run.ErrBadHorizon", horizon, err)
		}
	}
}

// TestReadRunRejectsHugeNetwork: a process count beyond what the dense
// network tables admit is a typed error, never an allocation failure.
func TestReadRunRejectsHugeNetwork(t *testing.T) {
	in := `{"network":{"procs":1000000000000,"channels":[]},"horizon":1}`
	if _, err := ReadRun(strings.NewReader(in)); !errors.Is(err, model.ErrBadProc) {
		t.Errorf("got %v, want model.ErrBadProc", err)
	}
}

// FuzzTraceLoad feeds arbitrary bytes to the trace loader, the one
// untrusted-file input: every input must load or fail with an error — never
// panic — and a loaded run must survive a write/read round trip with the
// same deliveries.
func FuzzTraceLoad(f *testing.F) {
	sc := scenario.Figure2b(scenario.DefaultFigure2())
	var buf bytes.Buffer
	if err := WriteRun(&buf, sc.MustSimulate(sim.NewRandom(6))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"network":{"procs":2,"channels":[{"from":1,"to":2,"lower":1,"upper":2}]},"horizon":-5}`))
	f.Add([]byte(`{"network":{"procs":2,"channels":[{"from":1,"to":2,"lower":1,"upper":2}]},"horizon":9223372036854775807}`))
	f.Add([]byte(`{"network":{"procs":2,"channels":[{"from":1,"to":2,"lower":1,"upper":2}]},"horizon":4,` +
		`"messages":[{"from":1,"to":2,"sent":1,"recv":2}],"externals":[{"proc":1,"time":1,"label":"go"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRun(&out, r); err != nil {
			t.Fatalf("loaded run does not encode: %v", err)
		}
		back, err := ReadRun(&out)
		if err != nil {
			t.Fatalf("loaded run does not reload: %v", err)
		}
		d1, d2 := r.Deliveries(), back.Deliveries()
		if len(d1) != len(d2) {
			t.Fatalf("round trip changed the deliveries: %d vs %d", len(d1), len(d2))
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("round trip changed delivery %d: %v vs %v", i, d1[i], d2[i])
			}
		}
	})
}
