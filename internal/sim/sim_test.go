package sim

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

func TestSimulateLegalityAcrossPolicies(t *testing.T) {
	net := model.MustComplete(4, 1, 5)
	for _, pol := range []Policy{Eager{}, Lazy{}, NewRandom(3), NewRandom(1234)} {
		r, err := Simulate(Config{
			Net:       net,
			Horizon:   40,
			Policy:    pol,
			Externals: GoAt(1, 1, "go"),
		})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		// The flood reaches everyone.
		for _, p := range net.Procs() {
			if r.LastIndex(p) == 0 {
				t.Errorf("%s: process %d never received anything", pol.Name(), p)
			}
		}
	}
}

func TestSimulateNothingWithoutExternals(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	r, err := Simulate(Config{Net: net, Horizon: 20, Policy: Eager{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3 initial only (no spontaneous actions)", r.NumNodes())
	}
	if len(r.Deliveries()) != 0 {
		t.Error("messages without any trigger")
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	net := model.MustComplete(4, 1, 6)
	cfg := Config{Net: net, Horizon: 30, Externals: GoAt(2, 3, "go")}
	cfg.Policy = NewRandom(77)
	r1, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = NewRandom(77)
	r2, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := r1.Deliveries(), r2.Deliveries()
	if len(d1) != len(d2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, d1[i], d2[i])
		}
	}
}

func TestSimulateConfigErrors(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	cases := []Config{
		{Net: nil, Horizon: 10},
		{Net: net, Horizon: 0},
		{Net: net, Horizon: 10, Externals: []run.ExternalEvent{{Proc: 9, Time: 1}}},
		{Net: net, Horizon: 10, Externals: []run.ExternalEvent{{Proc: 1, Time: 0}}},
		{Net: net, Horizon: 10, Externals: []run.ExternalEvent{{Proc: 1, Time: 99}}},
		{Net: net, Horizon: 1 << 30, Externals: GoAt(1, 1, "go")},
		{Net: net, Horizon: model.Infinity},
	}
	for i, cfg := range cases {
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: got %v, want ErrBadConfig", i, err)
		}
	}
}

func TestPolicyOutOfBoundsRejected(t *testing.T) {
	net := model.MustComplete(2, 2, 4)
	bad := Func{ID: "bad", F: func(Send, model.Bounds) int { return 1 }}
	_, err := Simulate(Config{Net: net, Horizon: 20, Policy: bad, Externals: GoAt(1, 1, "go")})
	if err == nil {
		t.Fatal("out-of-bounds latency accepted")
	}
}

func TestEagerLazyExtremes(t *testing.T) {
	net := model.NewBuilder(2).Chan(1, 2, 3, 9).MustBuild()
	rE, err := Simulate(Config{Net: net, Horizon: 30, Policy: Eager{}, Externals: GoAt(1, 1, "go")})
	if err != nil {
		t.Fatal(err)
	}
	rL, err := Simulate(Config{Net: net, Horizon: 30, Policy: Lazy{}, Externals: GoAt(1, 1, "go")})
	if err != nil {
		t.Fatal(err)
	}
	if got := rE.MustTime(run.BasicNode{Proc: 2, Index: 1}); got != 4 {
		t.Errorf("eager arrival %d, want 4", got)
	}
	if got := rL.MustTime(run.BasicNode{Proc: 2, Index: 1}); got != 10 {
		t.Errorf("lazy arrival %d, want 10", got)
	}
}

func TestRandomPolicyWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		p := NewRandom(seed)
		b := model.Bounds{Lower: 2, Upper: 7}
		for i := 0; i < 50; i++ {
			lat := p.Latency(Send{From: 1, To: 2, SendTime: i}, b)
			if lat < 2 || lat > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestHeavyTailPolicy pins the heavy-tail family: every latency stays in
// bounds, the same seed reproduces the same schedule, and the distribution
// is actually tail-heavy — most deliveries at or near the lower bound, yet
// some stragglers reach the deadline.
func TestHeavyTailPolicy(t *testing.T) {
	b := model.Bounds{Lower: 2, Upper: 12}
	p1, p2 := NewHeavyTail(9), NewHeavyTail(9)
	const samples = 2000
	fast, deadline := 0, 0
	for i := 0; i < samples; i++ {
		s := Send{From: 1, To: 2, SendTime: i}
		lat := p1.Latency(s, b)
		if lat2 := p2.Latency(s, b); lat2 != lat {
			t.Fatalf("sample %d: same seed gave %d vs %d", i, lat, lat2)
		}
		if lat < b.Lower || lat > b.Upper {
			t.Fatalf("sample %d: latency %d outside %s", i, lat, b)
		}
		if lat <= b.Lower+1 {
			fast++
		}
		if lat == b.Upper {
			deadline++
		}
	}
	if fast < samples/2 {
		t.Errorf("only %d/%d deliveries near the lower bound — not tail-heavy", fast, samples)
	}
	if deadline == 0 {
		t.Error("no delivery ever straggled to the deadline")
	}
	if got := p1.Latency(Send{}, model.Bounds{Lower: 3, Upper: 3}); got != 3 {
		t.Errorf("degenerate window latency %d, want 3", got)
	}
}

func TestTimedPolicyAndReplay(t *testing.T) {
	net := model.MustComplete(3, 1, 6)
	r1, err := Simulate(Config{Net: net, Horizon: 40, Policy: NewRandom(5), Externals: GoAt(1, 2, "go")})
	if err != nil {
		t.Fatal(err)
	}
	// Replaying r1's latencies reproduces its deliveries exactly.
	r2, err := Simulate(Config{Net: net, Horizon: 40, Policy: Replay(r1, Lazy{}), Externals: GoAt(1, 2, "go")})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := r1.Deliveries(), r2.Deliveries()
	if len(d1) != len(d2) {
		t.Fatalf("deliveries %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery %d: %v vs %v", i, d1[i], d2[i])
		}
	}
}

func TestTimedPolicyFallback(t *testing.T) {
	tp := &Timed{Latencies: map[Send]int{{From: 1, To: 2, SendTime: 5}: 3}}
	b := model.Bounds{Lower: 1, Upper: 4}
	if got := tp.Latency(Send{From: 1, To: 2, SendTime: 5}, b); got != 3 {
		t.Errorf("prescribed latency %d, want 3", got)
	}
	// Default fallback is Lazy.
	if got := tp.Latency(Send{From: 1, To: 2, SendTime: 9}, b); got != 4 {
		t.Errorf("fallback latency %d, want upper=4", got)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{Eager{}, "eager"},
		{Lazy{}, "lazy"},
		{NewRandom(1), "random"},
		{NewHeavyTail(1), "heavy"},
		{Func{}, "func"},
		{Func{ID: "adv"}, "adv"},
		{&Timed{}, "timed"},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestBatchingUnderSimultaneousArrivals(t *testing.T) {
	// Two senders triggered at the same time on equal-bound channels: their
	// messages reach process 3 simultaneously and form one batch.
	net := model.NewBuilder(3).Chan(1, 3, 4, 4).Chan(2, 3, 4, 4).MustBuild()
	r, err := Simulate(Config{
		Net: net, Horizon: 20, Policy: Eager{},
		Externals: []run.ExternalEvent{
			{Proc: 1, Time: 2, Label: "a"},
			{Proc: 2, Time: 2, Label: "b"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LastIndex(3) != 1 {
		t.Fatalf("process 3 has %d nodes, want one batch", r.LastIndex(3))
	}
	if got := len(r.Inbox(run.BasicNode{Proc: 3, Index: 1})); got != 2 {
		t.Errorf("batch size %d, want 2", got)
	}
}
