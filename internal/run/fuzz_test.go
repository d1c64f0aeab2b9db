package run_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// fuzzState is one interpreter execution: the per-process views of a fixed
// 3-ring over one store, a second view of process 1 over that store whose
// frontier is forged at the initial state, and a decoy view over another
// network's store for cross-network receipts.
type fuzzState struct {
	views  [3]*run.View
	forged *run.View
	decoy  *run.View
}

func newFuzzState() *fuzzState {
	ring := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).Chan(3, 1, 1, 2).MustBuild()
	other := model.NewBuilder(4).Chan(1, 2, 1, 1).MustBuild()
	store := run.NewStore(ring)
	st := &fuzzState{forged: store.LocalView(1), decoy: run.NewStore(other).LocalView(2)}
	for p := model.ProcID(1); p <= 3; p++ {
		st.views[p-1] = store.LocalView(p)
	}
	return st
}

// absorbErrors are the typed errors a rejected batch may report.
var absorbErrors = []error{
	run.ErrUnknownSender, run.ErrStaleView, run.ErrChannelMissing, run.ErrDuplicateSend,
}

// absorb runs one batch on v and returns a digest line. A rejected batch
// must be one of absorbErrors and leave v's origin and size as they were.
func absorb(t *testing.T, kind string, v *run.View, from []run.BasicNode, labels []string) string {
	origin, size := v.Origin(), v.Size()
	node, err := v.Absorb(from, labels)
	if err != nil {
		typed := false
		for _, want := range absorbErrors {
			typed = typed || errors.Is(err, want)
		}
		if !typed {
			t.Fatalf("%s: untyped error %v", kind, err)
		}
		if v.Origin() != origin || v.Size() != size {
			t.Fatalf("%s: failed absorb moved the view from %s (size %d) to %s (size %d)",
				kind, origin, size, v.Origin(), v.Size())
		}
	}
	return fmt.Sprintf("%s %v %v", kind, node, err)
}

// step interprets one (op, arg) byte pair against the state and returns a
// digest line of what happened — including any Absorb error text — so a
// replay can be compared step for step.
func (st *fuzzState) step(t *testing.T, op, arg byte) string {
	switch op % 4 {
	case 0:
		// Spontaneous state: absorb nothing but an external label.
		v := st.views[int(arg)%3]
		return absorb(t, "ext", v, nil, []string{fmt.Sprintf("e%d", arg%5)})
	case 1:
		// FFIP delivery along a ring arc from the sender's boundary state:
		// legitimate the first time, a duplicate after that.
		from := int(arg)%3 + 1
		to := from%3 + 1
		bnd, ok := st.views[from-1].Boundary(model.ProcID(from))
		if !ok {
			return "no boundary"
		}
		return absorb(t, "legit", st.views[to-1], []run.BasicNode{bnd}, nil)
	case 2:
		// Forged receipt: a sender the store has not recorded (an unknown
		// process, an initial node or an index past the timeline's end), or
		// any batch on the view whose frontier is forged at the initial
		// state.
		if arg%4 == 0 {
			return absorb(t, "stale", st.forged, nil, nil)
		}
		v := st.views[int(arg)%3]
		forged := run.BasicNode{Proc: model.ProcID(int(arg)%5 - 1), Index: int(arg % 7)}
		if arg%3 == 0 {
			forged.Index += 50
		}
		return absorb(t, "forged", v, []run.BasicNode{forged}, nil)
	default:
		// Cross-network receipt: a ring node absorbed by the decoy view
		// over another network's store.
		src := st.views[int(arg)%3]
		bnd, _ := src.Boundary(src.Origin().Proc)
		return absorb(t, "xnet", st.decoy, []run.BasicNode{bnd}, nil)
	}
}

// digest summarizes the observable state of every view.
func (st *fuzzState) digest() string {
	out := ""
	for i, v := range append(st.views[:], st.forged, st.decoy) {
		out += fmt.Sprintf("view%d origin=%v size=%d deliveries=%d;", i, v.Origin(), v.Size(), len(v.Deliveries()))
	}
	return out
}

// FuzzViewAbsorb drives View.Absorb with an arbitrary interleaving of
// legitimate and duplicate deliveries, receipts from senders missing from
// the store, a view with a forged frontier and cross-network receipts.
// Three invariants: no input may panic the view, every rejected batch is a
// typed error that leaves the view where it was, and the interpreter is
// deterministic — replaying the same ops on fresh views reproduces every
// step digest and the final state exactly.
func FuzzViewAbsorb(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 8, 3, 1, 0, 2, 2, 3, 9})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 0, 0, 0, 1, 0, 2})
	f.Add([]byte{2, 0, 2, 3, 2, 6, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // keep individual executions cheap
		}
		a, b := newFuzzState(), newFuzzState()
		for i := 0; i+1 < len(data); i += 2 {
			ra := a.step(t, data[i], data[i+1])
			rb := b.step(t, data[i], data[i+1])
			if ra != rb {
				t.Fatalf("step %d diverged:\n %s\n %s", i/2, ra, rb)
			}
		}
		if da, db := a.digest(), b.digest(); da != db {
			t.Fatalf("final state diverged:\n %s\n %s", da, db)
		}
	})
}
