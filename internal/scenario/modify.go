package scenario

import (
	"errors"
	"fmt"
	"math"

	"github.com/clockless/zigzag/internal/model"
)

// WithChannel returns a copy of the scenario whose network has one
// additional channel between two roles. It is used by experiments that
// contrast topologies (e.g. giving the asynchronous baseline a feedback
// chain to wait for).
func (s *Scenario) WithChannel(fromRole, toRole string, lower, upper int) (*Scenario, error) {
	from, ok := s.Roles[fromRole]
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown role %q", s.Name, fromRole)
	}
	to, ok := s.Roles[toRole]
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown role %q", s.Name, toRole)
	}
	if s.Net.HasChan(from, to) {
		return nil, fmt.Errorf("scenario %s: channel %s->%s already exists", s.Name, fromRole, toRole)
	}
	nb := model.NewBuilder(s.Net.N())
	for _, ch := range s.Net.Channels() {
		bd, err := s.Net.ChanBounds(ch.From, ch.To)
		if err != nil {
			return nil, err
		}
		nb.Chan(ch.From, ch.To, bd.Lower, bd.Upper)
	}
	nb.Chan(from, to, lower, upper)
	net, err := nb.Build()
	if err != nil {
		return nil, err
	}
	out := *s
	out.Net = net
	out.Name = s.Name + "+" + fromRole + ">" + toRole
	return &out, nil
}

// ErrBadScale reports a bound-scaling factor ScaleBounds cannot apply.
var ErrBadScale = errors.New("scenario: bad bound scale")

// ScaleBounds returns a copy of the scenario whose every channel bound is
// scaled by factor: L' = max(1, round(L*factor)) and U' = max(L',
// round(U*factor)). The horizon stretches by the same factor (rounded up)
// so truncation artifacts stay beyond the analysis window, while external
// input times are left alone — the schedule is part of the scenario's
// identity. Scaled copies are the bound-scaling axis of parameter sweeps;
// a factor of 1 returns the scenario unchanged. A factor that is not
// finite and positive, or that scales a bound or the horizon to
// model.Infinity or beyond, fails with ErrBadScale.
func (s *Scenario) ScaleBounds(factor float64) (*Scenario, error) {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return nil, fmt.Errorf("%w: scenario %s: factor %g not finite and positive", ErrBadScale, s.Name, factor)
	}
	if factor == 1 {
		return s, nil
	}
	if h := math.Ceil(float64(s.Horizon) * factor); h >= float64(model.Infinity) {
		return nil, fmt.Errorf("%w: scenario %s: factor %g scales the horizon to %g", ErrBadScale, s.Name, factor, h)
	}
	if u := math.Round(float64(s.Net.MaxUpper()) * factor); u >= float64(model.Infinity) {
		return nil, fmt.Errorf("%w: scenario %s: factor %g scales a bound to %g", ErrBadScale, s.Name, factor, u)
	}
	scale := func(b int) int {
		v := int(math.Round(float64(b) * factor))
		if v < 1 {
			v = 1
		}
		return v
	}
	nb := model.NewBuilder(s.Net.N())
	for _, ch := range s.Net.Channels() {
		bd, err := s.Net.ChanBounds(ch.From, ch.To)
		if err != nil {
			return nil, err
		}
		l := scale(bd.Lower)
		u := scale(bd.Upper)
		if u < l {
			u = l
		}
		nb.Chan(ch.From, ch.To, l, u)
	}
	net, err := nb.Build()
	if err != nil {
		return nil, err
	}
	out := *s
	out.Net = net
	out.Horizon = model.Time(math.Ceil(float64(s.Horizon) * factor))
	out.Name = fmt.Sprintf("%s@s=%g", s.Name, factor)
	return &out, nil
}
