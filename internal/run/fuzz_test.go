package run_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// appendErrors are the typed errors Recorder.Append may report.
var appendErrors = append([]error{run.ErrOutOfOrder, run.ErrOrphanNode}, buildErrors...)

// batch is one Append call the fuzzer decoded.
type batch struct {
	p        model.ProcID
	t        model.Time
	arrivals []run.Arrival
	labels   []string
}

// FuzzRecorderAppend decodes bytes into a tiny network and a sequence of
// receive batches whose arrivals carry arbitrary senders, send times and
// channel ids — often the right ones, so that runs grow. Every Append must
// succeed or fail with a typed error, and a failed one must leave the run
// as it was: the delivery count, every timeline and, once finished, the
// fingerprint and the deliveries equal those of a twin recorder that only
// saw the batches that succeeded. Nothing may panic.
func FuzzRecorderAppend(f *testing.F) {
	// Header (size, bound, shape and tolerance, horizon), then batches of
	// (process, tick step, label bit and arrival count) and 4-byte
	// arrivals: a legal exchange with a NoChan and a wrong-channel batch
	// among them on a tolerant complete pair, and a latency-1 ring with a
	// duplicate in one batch.
	f.Add([]byte{0, 1, 2, 8,
		0, 1, 0x80, 1, 1, 0x01, 1, 1, 0x80, 0x80, 0, 1, 0x01, 2, 1, 0x80, 0x80,
		1, 1, 0x01, 1, 2, 0x80, 0xff, 1, 0, 0x01, 1, 2, 0x80, 0x80, 0, 1, 0x01, 2, 2, 0x80, 0x00})
	f.Add([]byte{1, 0, 1, 6,
		0, 1, 0x80, 1, 1, 0x01, 1, 1, 0x80, 0x80, 2, 1, 0x01, 2, 1, 0x80, 0x80,
		0, 1, 0x02, 3, 1, 0x80, 0x80, 3, 1, 0x80, 0x80, 0, 0, 0x01, 3, 1, 0x80, 0x80,
		1, 1, 0x01, 1, 2, 0x80, 0x02})
	f.Add([]byte{2, 2, 0, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 512 {
			return
		}
		n := 2 + int(data[0]%3)
		upper := 1 + int(data[1]%3)
		var net *model.Network
		if data[2]%2 == 0 {
			net = model.MustComplete(n, 1, upper)
		} else {
			nb := model.NewBuilder(n)
			for p := 1; p <= n; p++ {
				nb.Chan(model.ProcID(p), model.ProcID(p%n+1), 1, upper)
			}
			net = nb.MustBuild()
		}
		horizon := model.Time(4 + data[3]%12)
		rc, err := run.NewRecorder(net, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if data[2]&2 != 0 {
			rc.Tolerate()
		}
		r := rc.Run()
		var ok []batch
		tick := model.Time(0)
		for in := data[4:]; len(in) >= 3; {
			b := batch{p: model.ProcID(1 + int(in[0])%(n+1)), t: tick + model.Time(in[1]%3)}
			if in[2]&0x80 != 0 {
				b.labels = []string{"go"}
			}
			k := int(in[2] % 4)
			in = in[3:]
			for ; k > 0 && len(in) >= 4; k-- {
				b.arrivals = append(b.arrivals, decodeArrival(r, b.p, in[:4]))
				in = in[4:]
			}
			tick = b.t

			nodes, dels := timelines(r), r.NumDeliveries()
			node, err := rc.Append(b.p, b.t, b.arrivals, b.labels)
			if err != nil {
				if !typedAppend(err) {
					t.Fatalf("append %+v: untyped error %v", b, err)
				}
				if !reflect.DeepEqual(timelines(r), nodes) || r.NumDeliveries() != dels {
					t.Fatalf("failed append %+v changed the run: %v", b, err)
				}
				continue
			}
			if node.Index != r.LastIndex(b.p) || r.NumDeliveries() != dels+len(b.arrivals) {
				t.Fatalf("append %+v recorded node %s with %d deliveries, had %d", b, node, r.NumDeliveries(), dels)
			}
			ok = append(ok, b)
		}
		run.DrainFreeTables()
		donor, err := sim.Simulate(sim.Config{Net: model.MustComplete(2+(n+1)%3, 1, upper), Horizon: horizon + 3,
			Policy: sim.NewRandom(int64(data[1])), Externals: sim.GoAt(1, 1, "go")})
		if err != nil {
			t.Fatal(err)
		}
		donor.Recycle()
		twin, err := run.NewRecorder(net, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if data[2]&2 != 0 {
			twin.Tolerate()
		}
		for _, b := range ok {
			if _, err := twin.Append(b.p, b.t, b.arrivals, b.labels); err != nil {
				t.Fatalf("twin rejects accepted batch %+v: %v", b, err)
			}
		}
		got, want := rc.Finish(), twin.Finish()
		if got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(got.Deliveries(), want.Deliveries()) {
			t.Fatal("rejected batches left a trace in the recording")
		}
	})
}

// decodeArrival builds one arrival for process p from four bytes: the
// sender's process and index, its send time and its channel id. A set high
// bit picks the right value — the sender's recorded time, the channel from
// the sender to p — so that batches are often legal.
func decodeArrival(r *run.Run, p model.ProcID, in []byte) run.Arrival {
	net := r.Net()
	from := run.BasicNode{Proc: model.ProcID(int(in[0]&0x7f) % (net.N() + 1))}
	if net.ValidProc(from.Proc) {
		from.Index = int(in[1]&0x7f) % (r.LastIndex(from.Proc) + 2)
	} else {
		from.Index = int(in[1] & 0x7f)
	}
	a := run.Arrival{From: from, Send: model.Time(in[2] & 0x7f)}
	if in[2]&0x80 != 0 && r.Appears(from) {
		a.Send = r.MustTime(from)
	}
	switch c := in[3]; {
	case c == 0xff:
		a.Chan = model.NoChan
	case c&0x80 != 0:
		a.Chan = net.ChanIDOf(from.Proc, p)
	default:
		a.Chan = model.ChanID(int(c) % (net.NumChannels() + 2))
	}
	return a
}

// timelines returns every process's last index.
func timelines(r *run.Run) []int {
	out := make([]int, r.Net().N())
	for i := range out {
		out[i] = r.LastIndex(model.ProcID(i + 1))
	}
	return out
}

// typedAppend reports whether err wraps one of appendErrors.
func typedAppend(err error) bool {
	for _, want := range appendErrors {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}
