package timing

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
)

// Fast is the gamma-fast run fast_gamma_sigma(r, theta1) of Definition 24:
// a run indistinguishable from r at sigma in which theta1 is pushed as late
// as sigma's knowledge permits — its chain is delivered at upper bounds —
// while every node reachable from theta1's base in GE(r, sigma) is placed
// exactly at its longest-path distance, and everything unreachable is pulled
// at least gamma+1 time units earlier. It certifies that knowledge weights
// computed on the extended bounds graph are tight (Theorem 4): the realized
// gap time(theta2) - time(theta1) equals kw(sigma, theta1, theta2).
type Fast struct {
	// Run is the synthesized run; node identities of past nodes coincide
	// with the source run's, and sigma's view is provably identical.
	Run *run.Run
	// Sigma is the knowledge-holding node.
	Sigma run.BasicNode
	// Theta1 is the node being delayed.
	Theta1 run.GeneralNode
	// Theta1Time is time(theta1) in the synthesized run.
	Theta1Time model.Time
	// Gamma is the separation parameter of Definition 23.
	Gamma int

	pastTimes map[run.BasicNode]model.Time
	psiTimes  []model.Time
	src       *run.Run
}

// fastPolicy realizes Definition 24's delivery rules as a simulator policy:
// prescribed latencies for in-past deliveries and theta1's chain; otherwise
// as early as the channel and the auxiliary floor allow.
type fastPolicy struct {
	prescribed map[sim.Send]int
	floor      []model.Time // per process: psi_j time; arrivals beyond the past wait for it
}

func (p *fastPolicy) Latency(s sim.Send, b model.Bounds) int {
	if lat, ok := p.prescribed[s]; ok {
		return lat
	}
	lat := b.Lower
	if f := p.floor[s.To-1]; s.SendTime+lat < f {
		lat = f - s.SendTime
	}
	if lat > b.Upper {
		// Cannot happen for a valid fast timing (the E''/E''' constraints
		// bound every floor by sender time + U); clamping keeps the policy
		// total, and the post-construction SameView audit would expose any
		// resulting corruption.
		lat = b.Upper
	}
	return lat
}

func (p *fastPolicy) Name() string { return "fast-timing" }

// BuildFast constructs the gamma-fast run of theta1 in r with respect to
// sigma. horizon == 0 picks a default generous enough to resolve chains of
// moderate length in the result; pass a larger horizon when measuring nodes
// with long chains.
func BuildFast(r *run.Run, sigma run.BasicNode, theta1 run.GeneralNode, gamma int, horizon model.Time) (*Fast, error) {
	if gamma < 0 {
		return nil, fmt.Errorf("timing: negative gamma %d", gamma)
	}
	ext, err := bounds.NewExtended(r, sigma)
	if err != nil {
		return nil, err
	}
	ps := ext.Past()
	if !ps.Contains(theta1.Base) {
		return nil, fmt.Errorf("%w: %s", bounds.ErrNotRecognized, theta1)
	}
	if theta1.Base.IsInitial() {
		return nil, fmt.Errorf("%w: %s", ErrInitialTheta, theta1)
	}
	net := r.Net()
	g := ext.Graph()

	srcV, err := ext.VertexOfPast(theta1.Base)
	if err != nil {
		return nil, err
	}
	originV, err := ext.VertexOfPast(sigma)
	if err != nil {
		return nil, err
	}
	d, err := g.Longest(srcV)
	if err != nil {
		return nil, fmt.Errorf("timing: GE inconsistent: %w", err)
	}
	f, err := g.LongestInto(originV)
	if err != nil {
		return nil, fmt.Errorf("timing: GE inconsistent: %w", err)
	}

	// Definition 23's parameters. F1/F2 range over past nodes with no path
	// from theta1's base; D over everything reachable from it.
	var f1, f2 int64
	haveNoPath := false
	for _, n := range ps.Nodes() {
		v, _ := ext.VertexOfPast(n)
		if d[v] != graph.NegInf {
			continue
		}
		if f[v] == graph.NegInf {
			return nil, fmt.Errorf("timing: past node %s cannot reach sigma in GE", n)
		}
		if !haveNoPath || f[v] > f1 {
			f1 = f[v]
		}
		if !haveNoPath || f[v] < f2 {
			f2 = f[v]
		}
		haveNoPath = true
	}
	var dMin int64
	haveD := false
	vertexCount := g.N()
	for v := 0; v < vertexCount; v++ {
		if d[v] == graph.NegInf {
			continue
		}
		if !haveD || d[v] < dMin {
			dMin = d[v]
		}
		haveD = true
	}
	if !haveD {
		return nil, fmt.Errorf("timing: theta1 base unreachable from itself — internal error")
	}
	base := 1 + f1 - f2 + int64(gamma) - dMin

	pastTimes := make(map[run.BasicNode]model.Time, ps.Size())
	var maxT model.Time
	for _, n := range ps.Nodes() {
		v, _ := ext.VertexOfPast(n)
		var t int64
		switch {
		case n.IsInitial():
			// Initial nodes occur at time 0 in every run (r'(0) = r(0) in
			// Definition 24). They have no incoming constraint edges, and
			// their outgoing successor/E' constraints stay satisfied at 0.
			t = 0
		case d[v] != graph.NegInf:
			t = base + d[v]
		default:
			t = f1 - f[v]
		}
		if t < 0 {
			return nil, fmt.Errorf("timing: negative fast time %d for %s", t, n)
		}
		pastTimes[n] = model.Time(t)
		if model.Time(t) > maxT {
			maxT = model.Time(t)
		}
	}
	psiTimes := make([]model.Time, net.N())
	for _, p := range net.Procs() {
		v := ext.AuxVertex(p)
		if d[v] != graph.NegInf {
			psiTimes[p-1] = model.Time(base + d[v])
		} else {
			psiTimes[p-1] = 0
		}
	}

	// Lemma 17 audit: the fast timing must be a valid timing for GE.
	timeOfVertex := func(v int) (model.Time, bool) {
		pt := ext.PointOf(v)
		if pt.Aux {
			return psiTimes[pt.Proc-1], true
		}
		t, ok := pastTimes[pt.Node.Base]
		return t, ok
	}
	for u := 0; u < vertexCount; u++ {
		tu, ok := timeOfVertex(u)
		if !ok {
			continue
		}
		// Unreachable auxiliary vertices are pinned to 0 and exempt from
		// incoming constraints (Definition 23); everything else must obey
		// every edge.
		for _, e := range g.Out(u) {
			tv, ok := timeOfVertex(e.To)
			if !ok {
				continue
			}
			pt := ext.PointOf(e.To)
			if pt.Aux && d[e.To] == graph.NegInf {
				continue
			}
			if int64(tu)+int64(e.Weight) > int64(tv) {
				return nil, fmt.Errorf("timing: fast timing violates edge %s -> %s (w=%d): %d, %d",
					ext.PointOf(u), pt, e.Weight, tu, tv)
			}
		}
	}

	// Prescribed latencies: in-past deliveries replay at their fast times.
	ds := r.Deliveries()
	prescribed := make(map[sim.Send]int, len(ds))
	for _, del := range ds {
		if !ps.Contains(del.To) {
			continue
		}
		tFrom, tTo := pastTimes[del.From], pastTimes[del.To]
		prescribed[sim.Send{From: del.From.Proc, To: del.To.Proc, SendTime: tFrom}] = tTo - tFrom
	}
	// Theta1's chain beyond the past travels at upper bounds.
	prefix, hops := ps.ResolvePrefix(theta1)
	cur := prefix[len(prefix)-1]
	if cur.IsInitial() && hops < theta1.Path.Hops() {
		return nil, fmt.Errorf("%w: chain of %s stalls at %s", bounds.ErrInitialChain, theta1, cur)
	}
	theta1Time := pastTimes[cur]
	for k := hops + 1; k <= theta1.Path.Hops(); k++ {
		from, to := theta1.Path[k-1], theta1.Path[k]
		u := net.Upper(from, to)
		prescribed[sim.Send{From: from, To: to, SendTime: theta1Time}] = u
		theta1Time += u
	}

	if horizon == 0 {
		horizon = maxT + model.Time((net.N()+2)*net.MaxUpper()) + 1
		if theta1Time >= horizon {
			horizon = theta1Time + model.Time((net.N()+2)*net.MaxUpper()) + 1
		}
	}

	var externals []run.ExternalEvent
	for _, e := range r.Externals() {
		if ps.Contains(e.To) {
			externals = append(externals, run.ExternalEvent{
				Proc: e.To.Proc, Time: pastTimes[e.To], Label: e.Label,
			})
		}
	}

	out, err := sim.Simulate(sim.Config{
		Net:       net,
		Horizon:   horizon,
		Policy:    &fastPolicy{prescribed: prescribed, floor: psiTimes},
		Externals: externals,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRun, err)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRun, err)
	}
	// Audit: sigma's subjective view is unchanged, and every past node sits
	// exactly at its fast time.
	if err := run.SameView(r, out, sigma); err != nil {
		return nil, fmt.Errorf("%w: view changed: %v", ErrInvalidRun, err)
	}
	for n, want := range pastTimes {
		got, terr := out.Time(n)
		if terr != nil {
			return nil, fmt.Errorf("%w: past node %s missing: %v", ErrInvalidRun, n, terr)
		}
		if got != want {
			return nil, fmt.Errorf("%w: past node %s at %d, fast timing says %d", ErrInvalidRun, n, got, want)
		}
	}
	return &Fast{
		Run:        out,
		Sigma:      sigma,
		Theta1:     theta1,
		Theta1Time: theta1Time,
		Gamma:      gamma,
		pastTimes:  pastTimes,
		psiTimes:   psiTimes,
		src:        r,
	}, nil
}

// PastTime returns the fast time of a past node.
func (fr *Fast) PastTime(n run.BasicNode) (model.Time, bool) {
	t, ok := fr.pastTimes[n]
	return t, ok
}

// PsiTime returns the auxiliary horizon time of process p in the fast run.
func (fr *Fast) PsiTime(p model.ProcID) model.Time { return fr.psiTimes[p-1] }

// Gap returns time(theta2) - time(theta1) in the fast run. For theta2 with
// a constraint path from theta1, this equals kw(sigma, theta1, theta2)
// (Lemma 18 / Corollary 1); for unreachable theta2 it is at most -gamma
// plus chain slack, witnessing that no bound is known.
func (fr *Fast) Gap(theta2 run.GeneralNode) (int, error) {
	t2, err := fr.Run.TimeOf(theta2)
	if err != nil {
		return 0, err
	}
	return t2 - fr.Theta1Time, nil
}
