package obs

import "repro/internal/simclock"

// Series is one named telemetry series: parallel time/value slices in
// observation order.
type Series struct {
	Name   string
	Times  []simclock.Time
	Values []float64
}

// Registry records named per-tick telemetry series. Like the Recorder, a
// nil *Registry is valid and free: every method nil-guards.
type Registry struct {
	order []*Series
	index map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*Series)}
}

// On reports whether series should be recorded.
func (g *Registry) On() bool { return g != nil }

// Observe appends one point to the named series, creating it on first
// use. Callers pass precomputed (constant or cached) name strings so the
// recording path does not build strings per point.
func (g *Registry) Observe(name string, at simclock.Time, v float64) {
	if g == nil {
		return
	}
	s, ok := g.index[name]
	if !ok {
		s = &Series{Name: name}
		g.index[name] = s
		g.order = append(g.order, s)
	}
	s.Times = append(s.Times, at)
	s.Values = append(s.Values, v)
}

// All returns the series in first-observation order.
func (g *Registry) All() []*Series {
	if g == nil {
		return nil
	}
	return g.order
}

// Get returns the named series, or nil when it was never observed.
func (g *Registry) Get(name string) *Series {
	if g == nil {
		return nil
	}
	return g.index[name]
}
