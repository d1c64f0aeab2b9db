package live

import (
	"fmt"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// RefExecute exposes the reference environment to the external test
// package.
var RefExecute = refExecute

// refMsg is one in-flight message of the reference environment. Its
// full-information payload is the sender node: every view shares one
// causal store that already holds the sender's past.
type refMsg struct {
	from run.BasicNode
	send model.Time
}

// refExecute is the reference environment the production path is checked
// against. It shares no scheduling code with sim.Stepper: a plain loop over
// every tick with map-keyed arrivals — no buckets, freelists, slabs or node
// prediction. Each tick it records the externals, then visits the
// processes in id order; a process that receives anything absorbs its batch
// into its view, runs its agent and floods the new state at once, calling
// the policy and the fault hooks in the documented order: drop, latency,
// delay, horizon cut, dead-destination discard.
func refExecute(cfg Config) (*Result, error) {
	net := cfg.Net
	policy := cfg.Policy
	if policy == nil {
		policy = sim.Eager{}
	}
	var inj *faults.Injector
	bl := run.NewBuilder(net, cfg.Horizon)
	if cfg.Faults != nil {
		var err error
		if inj, err = faults.NewInjector(cfg.Faults, net, cfg.Horizon); err != nil {
			return nil, err
		}
		bl.Tolerate()
	}
	for _, e := range cfg.Externals {
		if !net.ValidProc(e.Proc) || e.Time < 1 || e.Time > cfg.Horizon {
			return nil, fmt.Errorf("reference: bad external %v", e)
		}
	}
	st := run.NewStore(net)
	views := make(map[model.ProcID]*run.View)
	for _, p := range net.Procs() {
		views[p] = st.LocalView(p)
	}
	inFlight := make(map[model.Time]map[model.ProcID][]refMsg)
	res := &Result{}
	for t := model.Time(1); t <= cfg.Horizon; t++ {
		ext := make(map[model.ProcID][]string)
		for _, e := range cfg.Externals {
			if e.Time != t || (inj != nil && inj.Dead(e.Proc, t)) {
				continue
			}
			bl.External(e)
			ext[e.Proc] = append(ext[e.Proc], e.Label)
		}
		arriving := inFlight[t]
		delete(inFlight, t)
		for _, p := range net.Procs() {
			msgs := arriving[p]
			if len(msgs) == 0 && len(ext[p]) == 0 {
				continue
			}
			var from []run.BasicNode
			for _, m := range msgs {
				bl.Message(run.MessageEvent{FromProc: m.from.Proc, ToProc: p, SendTime: m.send, RecvTime: t})
				if inj != nil {
					inj.Deliver(net.ChanIDOf(m.from.Proc, p), m.from.Proc, p, m.send, t)
				}
				from = append(from, m.from)
			}
			node, err := views[p].Absorb(from, ext[p])
			if err != nil {
				return nil, err
			}
			if agent := cfg.Agents[p]; agent != nil {
				if dg, ok := agent.(Degradable); ok && inj != nil && inj.DegradedAt(p, t) {
					dg.Degrade(inj.DegradeReason(p, t))
				}
				for _, label := range agent.OnState(views[p], ext[p]) {
					res.Actions = append(res.Actions, Action{Proc: p, Node: node, Time: t, Label: label})
				}
			}
			for _, a := range net.OutArcs(p) {
				if inj != nil && inj.SendDrop(a.ID, p, a.To, t) {
					continue
				}
				lat := policy.Latency(sim.Send{From: p, To: a.To, SendTime: t}, a.Bounds)
				if lat < a.Bounds.Lower || lat > a.Bounds.Upper {
					return nil, fmt.Errorf("reference: latency %d outside %s", lat, a.Bounds)
				}
				if inj != nil {
					lat = inj.Delay(a.ID, p, a.To, t, lat)
				}
				at := t + lat
				if at > cfg.Horizon {
					continue
				}
				if inj != nil && inj.Dead(a.To, at) {
					inj.Discard(a.ID, p, a.To, t, at)
					continue
				}
				if inFlight[at] == nil {
					inFlight[at] = make(map[model.ProcID][]refMsg)
				}
				inFlight[at][a.To] = append(inFlight[at][a.To], refMsg{from: node, send: t})
			}
		}
	}
	r, err := bl.Build()
	if err != nil {
		return nil, err
	}
	res.Run = r
	if inj != nil {
		rep := inj.Report()
		res.Violations, res.Crashed = rep.Violations, rep.Crashed
		for _, p := range rep.Degraded {
			if cfg.Agents[p] != nil {
				res.Degraded = append(res.Degraded, p)
			}
		}
	}
	return res, nil
}
