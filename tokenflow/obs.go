package tokenflow

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/attribution"
)

// ObsSpec turns on the flight recorder for a run. The zero value records
// nothing and is guaranteed free: an uninstrumented run produces results
// byte-identical to a build without the observability layer.
type ObsSpec struct {
	// Events records the request lifecycle on the event bus: arrival,
	// gateway buffering/shedding, route decision (with the policy's
	// score), queueing, admission, preemption/resume, first token, decode
	// progress, completion, KV pin/evict/mirror/reload, migration
	// accept/decline, pre-warm, drain hand-off, scale decisions, and
	// fabric transfers.
	Events bool

	// Series records named per-tick telemetry series: per-replica queue
	// depth, KV utilization and host-mirror bytes, per-link fabric
	// busy/backlog, active replica count, gateway depth, and the
	// autoscaler's full signal vector. Series ride the cluster's sampling
	// loop, so they need SampleEvery set; Run records them like a
	// one-replica RunCluster.
	Series bool

	// Profile times the simulator's own phases (control tick, engine
	// step, fabric settle, attribution) with the wall clock, for the
	// profile.json self-profile. Wall time never feeds back into
	// virtual-time results.
	Profile bool

	// Attribution streams every request's lifecycle into a critical-path
	// latency breakdown: per-request causal spans (gateway wait, KV
	// reload / migration wire time, queue wait, prefill, decode,
	// preemption gaps) folded into bounded-memory quantile sketches per
	// phase × request class × replica. The result is
	// ClusterResult.Attribution; memory is independent of request count,
	// so it stays on for 1M-request runs where Events would not fit. Run
	// records it too, but its Result has no report field: set Out to get
	// attribution.json.
	Attribution bool

	// Out, when non-empty, writes every captured layer into this
	// directory after the run: events.jsonl, trace.json (Chrome
	// trace_event JSON — open in Perfetto), series.csv, profile.json,
	// attribution.json.
	Out string
}

// options maps the public spec onto the internal capture options.
func (s ObsSpec) options() obs.Options {
	return obs.Options{
		Events:      s.Events,
		Series:      s.Series,
		Profile:     s.Profile,
		Attribution: s.Attribution,
	}
}

// ObsCapture holds the observability products of one instrumented run.
// Results carry a nil *ObsCapture when the run was not instrumented; all
// methods are nil-safe.
type ObsCapture struct {
	cap      *obs.Capture
	scenario string
	wall     time.Duration
}

// newObsCapture wraps an internal capture; nil in, nil out.
func newObsCapture(c *obs.Capture, scenario string, wall time.Duration) *ObsCapture {
	if c == nil {
		return nil
	}
	return &ObsCapture{cap: c, scenario: scenario, wall: wall}
}

// EventCount reports the number of recorded lifecycle events.
func (c *ObsCapture) EventCount() int {
	if c == nil {
		return 0
	}
	return c.cap.Events.Len()
}

// WriteFiles writes every captured layer into dir (created if needed) and
// returns the paths written: events.jsonl, trace.json, series.csv,
// profile.json — only the layers that were on.
func (c *ObsCapture) WriteFiles(dir string) ([]string, error) {
	if c == nil {
		return nil, nil
	}
	return c.cap.WriteFiles(dir, c.scenario, c.wall)
}

// AttributionReport is the end-of-run critical-path latency breakdown
// recorded under ObsSpec.Attribution: exact per-phase totals and
// sketch-backed quantiles (≤ 3.1% relative error) cluster-wide, split by
// request class and by replica, plus the slowest spans for per-request
// waterfalls. WriteJSON emits it in the attribution.json shape.
type AttributionReport = attribution.Report

// AttributionSpan is one request's causal span: its lifecycle
// timestamps and the exact phase decomposition, which sums to the
// measured TTFT and E2E latency by construction.
type AttributionSpan = attribution.Span

// Waterfall renders one span's phase breakdown as an aligned text
// waterfall (one bar row per nonzero phase), width columns wide.
func Waterfall(s AttributionSpan, width int) string {
	return attribution.Waterfall(s, width)
}

// Span phase indices into AttributionSpan.Phases, for consumers walking
// spans directly (e.g. picking out a request's crash-recovery retry
// time).
const (
	PhaseGateway   = attribution.PhaseGateway
	PhaseWire      = attribution.PhaseWire
	PhaseQueue     = attribution.PhaseQueue
	PhasePrefill   = attribution.PhasePrefill
	PhaseDecode    = attribution.PhaseDecode
	PhasePreempted = attribution.PhasePreempted
	PhaseRetry     = attribution.PhaseRetry
)

// writeAttributionJSON lands the report as <dir>/attribution.json, the
// Out-directory companion to the capture's own files.
func writeAttributionJSON(dir string, rep *AttributionReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "attribution.json"))
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
