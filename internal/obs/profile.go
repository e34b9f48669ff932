package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Phase labels one self-profiled simulator phase.
type Phase uint8

const (
	// PhaseControlTick is the cluster's autoscale control tick.
	PhaseControlTick Phase = iota
	// PhaseEngineStep is one engine scheduling step (a kick: decide,
	// admit, launch).
	PhaseEngineStep
	// PhaseFabricSettle is one transfer booking through the fabric's
	// bottleneck scan.
	PhaseFabricSettle
	// PhaseAttribution is the latency-attribution finalize: merging the
	// per-shard sketch grids and building the attribution report at
	// collect time. The streaming observe path is deliberately not
	// phase-timed (a wall-clock read per event would dwarf the work);
	// its cost lands inside engine_step and fabric_settle instead.
	PhaseAttribution
	// PhaseShardDrain is the round-robin fast path's one drain fanned out
	// to a goroutine per busy shard, wait included: only when several
	// shards are busy and GOMAXPROCS is above 1.
	PhaseShardDrain

	numPhases
)

var phaseNames = [numPhases]string{
	"control_tick", "engine_step", "fabric_settle", "attribution",
	"shard_drain",
}

// String returns the phase's stable report name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseStat accumulates wall-clock time for one phase.
type PhaseStat struct {
	Calls   uint64 `json:"calls"`
	TotalNS int64  `json:"total_ns"`
}

// Profiler times the simulator's own phases with the wall clock. The
// measurements never feed back into simulation state, so profiling cannot
// perturb virtual-time results; a nil *Profiler is valid and free.
type Profiler struct {
	stats [numPhases]PhaseStat
}

// NewProfiler returns a zeroed profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Begin returns the wall-clock start of a phase (zero when p is nil, so
// the matching End is also free).
func (p *Profiler) Begin() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// End charges the elapsed wall time since t0 to the phase.
func (p *Profiler) End(ph Phase, t0 time.Time) {
	if p == nil {
		return
	}
	s := &p.stats[ph]
	s.Calls++
	s.TotalNS += time.Since(t0).Nanoseconds()
}

// Stat returns the accumulated stat for a phase.
func (p *Profiler) Stat(ph Phase) PhaseStat {
	if p == nil {
		return PhaseStat{}
	}
	return p.stats[ph]
}

// MergeProfilers sums per-shard profilers into one (nil entries are
// skipped; all-nil input yields nil). Sharded runs time each shard's
// engine steps and fabric settles on the shard's own profiler and fold
// them here at collect time.
func MergeProfilers(ps ...*Profiler) *Profiler {
	var m *Profiler
	for _, p := range ps {
		if p == nil {
			continue
		}
		if m == nil {
			m = NewProfiler()
		}
		for ph := Phase(0); ph < numPhases; ph++ {
			m.stats[ph].Calls += p.stats[ph].Calls
			m.stats[ph].TotalNS += p.stats[ph].TotalNS
		}
	}
	return m
}

// BenchPhase is one phase's entry in a profile.json report.
type BenchPhase struct {
	Calls   uint64 `json:"calls"`
	TotalNS int64  `json:"total_ns"`
	AvgNS   int64  `json:"avg_ns"`
}

// BenchReport is the on-disk shape of profile.json: the simulator's
// self-measured per-phase wall time for one run.
type BenchReport struct {
	// Scenario names the reference run the numbers describe.
	Scenario string `json:"scenario"`
	// Events is the number of lifecycle events the run emitted.
	Events int `json:"events"`
	// WallNS is the run's total wall-clock time.
	WallNS int64 `json:"wall_ns"`
	// Phases maps phase name to its accumulated timing.
	Phases map[string]BenchPhase `json:"phases"`
}

// Report assembles a BenchReport from the profiler's accumulated stats.
func (p *Profiler) Report(scenario string, events int, wall time.Duration) BenchReport {
	r := BenchReport{
		Scenario: scenario,
		Events:   events,
		WallNS:   wall.Nanoseconds(),
		Phases:   make(map[string]BenchPhase, numPhases),
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		s := p.Stat(ph)
		b := BenchPhase{Calls: s.Calls, TotalNS: s.TotalNS}
		if s.Calls > 0 {
			b.AvgNS = s.TotalNS / int64(s.Calls)
		}
		r.Phases[ph.String()] = b
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
