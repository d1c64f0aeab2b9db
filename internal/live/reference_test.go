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

// refExecute is the reference environment the production path is checked
// against. It shares no scheduling code with sim.Stepper: a plain loop over
// every tick with map-keyed arrivals — no buckets, freelists, slabs or node
// prediction. Each tick it visits the processes in id order; a process
// that receives anything appends its batch to the run through a
// run.Recorder, moves its agent's view there, runs the agent and floods
// the new state at once, calling the policy and the fault hooks in the
// documented order: drop, latency, delay, horizon cut, dead-destination
// discard. A message's full-information payload is its sender node.
func refExecute(cfg Config) (*Result, error) {
	net := cfg.Net
	policy := cfg.Policy
	if policy == nil {
		policy = sim.Eager{}
	}
	var inj *faults.Injector
	rec, err := run.NewRecorder(net, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if inj, err = faults.NewInjector(cfg.Faults, net, cfg.Horizon); err != nil {
			return nil, err
		}
		rec.Tolerate()
	}
	for _, e := range cfg.Externals {
		if !net.ValidProc(e.Proc) || e.Time < 1 || e.Time > cfg.Horizon {
			return nil, fmt.Errorf("reference: bad external %v", e)
		}
	}
	views := make(map[model.ProcID]*run.View)
	for p, agent := range cfg.Agents {
		if agent != nil {
			if views[p], err = run.ViewOf(rec.Run(), run.BasicNode{Proc: p}); err != nil {
				return nil, err
			}
		}
	}
	inFlight := make(map[model.Time]map[model.ProcID][]run.Arrival)
	res := &Result{}
	for t := model.Time(1); t <= cfg.Horizon; t++ {
		ext := make(map[model.ProcID][]string)
		for _, e := range cfg.Externals {
			if e.Time != t || (inj != nil && inj.Dead(e.Proc, t)) {
				continue
			}
			ext[e.Proc] = append(ext[e.Proc], e.Label)
		}
		arriving := inFlight[t]
		delete(inFlight, t)
		for _, p := range net.Procs() {
			msgs := arriving[p]
			if len(msgs) == 0 && len(ext[p]) == 0 {
				continue
			}
			node, err := rec.Append(p, t, msgs, ext[p])
			if err != nil {
				return nil, err
			}
			for _, m := range msgs {
				if inj != nil {
					inj.Deliver(net.ChanIDOf(m.From.Proc, p), m.From.Proc, p, m.Send, t)
				}
			}
			if agent := cfg.Agents[p]; agent != nil {
				if _, err := views[p].Advance(rec.Run()); err != nil {
					return nil, err
				}
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
					inFlight[at] = make(map[model.ProcID][]run.Arrival)
				}
				inFlight[at][a.To] = append(inFlight[at][a.To], run.Arrival{From: node, Send: t, Chan: a.ID})
			}
		}
	}
	res.Run = rec.Finish()
	tainted := map[model.ProcID]bool{}
	if inj != nil {
		rep := inj.Report()
		res.Violations, res.Crashed = rep.Violations, rep.Crashed
		for _, p := range rep.Degraded {
			tainted[p] = true
			if dg, ok := cfg.Agents[p].(Degradable); ok && !dg.Degraded() {
				dg.Degrade(inj.DegradeReason(p, cfg.Horizon))
			}
		}
	}
	for _, p := range net.Procs() {
		agent := cfg.Agents[p]
		if agent == nil {
			continue
		}
		if dg, ok := agent.(Degradable); tainted[p] || ok && dg.Degraded() {
			res.Degraded = append(res.Degraded, p)
		}
	}
	return res, nil
}
