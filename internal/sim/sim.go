package sim

import (
	"errors"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Config parametrizes one simulation.
type Config struct {
	// Net is the time-bounded network (required).
	Net *model.Network
	// Horizon is the last simulated time step (required, >= 1).
	Horizon model.Time
	// Policy chooses delivery instants; defaults to Eager if nil.
	Policy Policy
	// Externals is the schedule of spontaneous external inputs. Each is
	// delivered to its process at its time (time >= 1).
	Externals []run.ExternalEvent
	// Faults optionally injects a fault plan (crashes, dead links, missed
	// deadlines) into the environment. The recorded run then reflects the
	// violated model — use SimulateFaulty to also obtain the violation
	// report. Nil means the fault-free environment of the paper.
	Faults *faults.Plan
}

// ErrBadConfig reports an unusable simulation configuration.
var ErrBadConfig = errors.New("sim: bad configuration")

// Simulate executes the FFIP over cfg.Net up to cfg.Horizon and returns the
// recorded run. The dynamics follow Section 2.1 of the paper:
//
//   - processes are event-driven: a process moves only when it receives at
//     least one message (external or internal) and then, being an FFIP,
//     immediately sends its full history on every outgoing channel;
//   - the environment delivers each message within its channel's [L, U]
//     window, at the instant chosen by the Policy;
//   - initial nodes never act, so with no externals nothing ever happens.
//
// Without cfg.Faults the returned run always passes (*run.Run).Validate.
// With a fault plan the environment deviates exactly as the plan dictates
// and the recording reflects the violated model; use SimulateFaulty for the
// accompanying violation report.
func Simulate(cfg Config) (*run.Run, error) {
	r, _, err := simulate(cfg)
	return r, err
}

// SimulateFaulty is Simulate for fault-injected configurations: alongside
// the recorded run it returns the injector's settled report — every bound
// violation as a typed error plus the crashed and degraded process sets.
// With a nil cfg.Faults the report is empty but non-nil.
func SimulateFaulty(cfg Config) (*run.Run, *faults.Report, error) {
	r, inj, err := simulate(cfg)
	if err != nil {
		return nil, nil, err
	}
	if inj == nil {
		return r, &faults.Report{}, nil
	}
	return r, inj.Report(), nil
}

func simulate(cfg Config) (*run.Run, *faults.Injector, error) {
	s, err := NewStepper(cfg)
	if err != nil {
		return nil, nil, err
	}
	for {
		batches, err := s.Step()
		if err != nil {
			return nil, nil, err
		}
		if batches == nil {
			break
		}
	}
	return s.Finish(), s.inj, nil
}

// MustSimulate is Simulate that panics on error; intended for fixtures.
func MustSimulate(cfg Config) *run.Run {
	r, err := Simulate(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// GoAt returns an external schedule consisting of a single input labelled
// label delivered to proc at time t. It is the common trigger in the
// coordination scenarios: the spontaneous mu_go message of Definition 1.
func GoAt(proc model.ProcID, t model.Time, label string) []run.ExternalEvent {
	return []run.ExternalEvent{{Proc: proc, Time: t, Label: label}}
}
