// Package autoscale implements SLO-driven replica autoscaling for the
// multi-replica cluster simulation: a control loop (driven by the cluster
// on its virtual clock) samples per-tick cluster signals — queue pressure,
// KV utilization, warm-up progress — and a pluggable policy decides whether
// to grow or shrink the replica set between a configured minimum and
// maximum.
//
// Replicas move through a lifecycle the cluster enforces:
//
//	off ──scale-up──▶ warming ──warm-up latency──▶ active
//	active ──scale-down──▶ draining ──last request finishes──▶ off
//
// A warming replica occupies its GPU (model load + allocator init) but
// accepts no traffic; the cluster may overlap the warm-up with KV
// pre-warming, migrating the hottest pinned session prefixes to the new
// replica over the interconnect so its first requests hit the prefix cache
// instead of recomputing. A draining replica receives no new requests,
// finishes its in-flight work, and hands its pinned prefixes to the
// surviving replicas (or drops them) before releasing the GPU.
//
// Policies are deterministic and stateful: hysteresis (consecutive-tick
// streaks plus a post-action cooldown) keeps an oscillating load from
// flapping the replica set.
package autoscale

import (
	"fmt"
	"time"
)

// State is a replica's position in the autoscaler lifecycle.
type State int

const (
	// Off: the replica holds no GPU and receives no traffic.
	Off State = iota
	// Warming: the GPU is loading model weights and initializing the
	// allocator; no traffic yet, but GPU-seconds are already being paid.
	Warming
	// Active: the replica serves routed traffic.
	Active
	// Draining: no new traffic; in-flight requests finish and pinned
	// prefixes migrate out before the replica turns off.
	Draining
)

var stateNames = [...]string{"off", "warming", "active", "draining"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// InService reports whether the replica occupies its GPU (everything but
// Off) — the states that accrue GPU-seconds.
func (s State) InService() bool { return s != Off }

// Signals is the per-tick cluster view a policy decides from. All fields
// describe the instant of the control tick.
type Signals struct {
	// Active, Warming and Draining count replicas per lifecycle state;
	// Min and Max bound the active+warming set.
	Active, Warming, Draining int
	Min, Max                  int

	// Outstanding is the queued+running request count across active
	// replicas (draining replicas finish their own work and are excluded:
	// their load disappears on its own).
	Outstanding int

	// KVUtil is the used-page fraction pooled over active replicas
	// (0 when none are active).
	KVUtil float64

	// P99TTFT is the windowed observed P99 time-to-first-token across the
	// cluster at this tick (0 when no first token landed inside the
	// observation window) — the feedback signal of the slo-target policy.
	P99TTFT time.Duration

	// Arrivals counts the requests that arrived since the previous control
	// tick, gateway-buffered and shed arrivals included — the demand signal
	// the predictive policy forecasts from.
	Arrivals int

	// Gateway is the number of arrivals currently buffered in the
	// scale-to-zero gateway (0 unless the pool is at zero active replicas
	// with requests waiting on a cold start).
	Gateway int

	// TickSeconds is the control-loop period and WarmupSeconds the
	// scale-up latency — the lead time a predictive policy must forecast
	// past so capacity lands when the demand does.
	TickSeconds   float64
	WarmupSeconds float64
}

// SignalNames lists the telemetry-series names for the signal vector, in
// the order Vector emits them. The flight recorder charts one series per
// name under "autoscale/" every control tick, so a scale decision in the
// event log can be read against the exact signals that caused it.
var SignalNames = [...]string{
	"active", "warming", "draining", "outstanding",
	"kv_util", "p99_ttft_s", "arrivals", "gateway",
}

// Vector flattens the signals into the SignalNames order for telemetry
// recording. Durations convert to seconds.
func (s Signals) Vector() [len(SignalNames)]float64 {
	return [...]float64{
		float64(s.Active), float64(s.Warming), float64(s.Draining),
		float64(s.Outstanding), s.KVUtil, s.P99TTFT.Seconds(),
		float64(s.Arrivals), float64(s.Gateway),
	}
}

// Provisioned counts the replicas that are, or are about to be, serving
// capacity: active plus warming. Policies normalize pressure by it so a
// warm-up in flight already counts as an answer to the current load.
func (s Signals) Provisioned() int { return s.Active + s.Warming }

// Pressure is the outstanding requests per provisioned replica.
func (s Signals) Pressure() float64 {
	if p := s.Provisioned(); p > 0 {
		return float64(s.Outstanding) / float64(p)
	}
	return float64(s.Outstanding)
}

// Decision is a policy's verdict for one control tick.
type Decision int

const (
	// Hold keeps the replica set as is.
	Hold Decision = iota
	// ScaleUp asks the cluster to start warming one more replica.
	ScaleUp
	// ScaleDown asks the cluster to drain one active replica.
	ScaleDown
)

var decisionNames = [...]string{"hold", "scale-up", "scale-down"}

func (d Decision) String() string {
	if int(d) < len(decisionNames) {
		return decisionNames[d]
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// Policy decides scale actions from per-tick signals. Implementations keep
// hysteresis state; one Policy instance serves one cluster run.
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Decide returns the action for this control tick. The cluster
	// enforces Min/Max; policies should still respect them to keep their
	// hysteresis state honest.
	Decide(s Signals) Decision
}

// Policy names accepted by New and ByName.
const (
	NameQueuePressure = "queue-pressure"
	NameKVUtilization = "kv-utilization"
	NameSLOTarget     = "slo-target"
	NamePredictive    = "predictive"
)

// Names lists the built-in policy names.
func Names() []string {
	return []string{NameQueuePressure, NameKVUtilization, NameSLOTarget, NamePredictive}
}

// New constructs a fresh policy instance by name. sloTarget is the
// slo-target policy's P99 TTFT goal and ratePerReplica the predictive
// policy's req/s per replica; zero selects each default, and the other
// policies ignore both.
func New(name string, sloTarget time.Duration, ratePerReplica float64) (Policy, error) {
	switch name {
	case NameQueuePressure:
		return NewQueuePressure(), nil
	case NameKVUtilization:
		return NewKVUtilization(), nil
	case NameSLOTarget:
		return NewSLOTarget(sloTarget), nil
	case NamePredictive:
		return NewPredictive(ratePerReplica), nil
	default:
		return nil, fmt.Errorf("autoscale: unknown policy %q (have %v)", name, Names())
	}
}

// ByName constructs a fresh policy instance by name with default tuning.
func ByName(name string) (Policy, error) { return New(name, 0, 0) }

// Forecaster is implemented by policies that forecast demand; the cluster
// surfaces the forecast error in its result so a study can tell whether a
// predictive policy was actually predicting or just reacting late.
type Forecaster interface {
	// ForecastError reports the mean absolute error between the policy's
	// arrival-rate forecasts and the rates actually observed (req/s), and
	// the number of forecasts scored.
	ForecastError() (mae float64, samples int)
}

// TTFTObserver marks policies that consume Signals.P99TTFT. The cluster
// only maintains the windowed estimator (observer hooks plus a per-tick
// sort) when the policy actually reads it.
type TTFTObserver interface {
	ObservesTTFT() bool
}

// ObservesTTFT reports whether the policy consumes the windowed P99 TTFT.
func ObservesTTFT(p Policy) bool {
	o, ok := p.(TTFTObserver)
	return ok && o.ObservesTTFT()
}

// Hysteresis streak and cooldown lengths in control ticks: the reactive
// policies scale up briskly and down reluctantly.
const (
	upTicks       = 2
	downTicks     = 8
	cooldownTicks = 4
)

// hysteresis is the shared flap damper: an action fires only after its
// trigger condition held for a streak of consecutive ticks, and after any
// action the policy holds for a cooldown regardless of signals.
type hysteresis struct {
	upTicks, downTicks, cooldownTicks int

	upStreak, downStreak, cooldown int
}

// reactiveHysteresis is the damper the queue-pressure, kv-utilization and
// slo-target policies share.
func reactiveHysteresis() hysteresis {
	return hysteresis{upTicks: upTicks, downTicks: downTicks, cooldownTicks: cooldownTicks}
}

// decide folds this tick's trigger readings into the streaks and returns
// the action, if any, that just crossed its streak threshold.
func (h *hysteresis) decide(wantUp, wantDown bool) Decision {
	if h.cooldown > 0 {
		h.cooldown--
		return Hold
	}
	if wantUp {
		h.upStreak++
		h.downStreak = 0
		if h.upStreak >= h.upTicks {
			h.fired()
			return ScaleUp
		}
		return Hold
	}
	if wantDown {
		h.downStreak++
		h.upStreak = 0
		if h.downStreak >= h.downTicks {
			h.fired()
			return ScaleDown
		}
		return Hold
	}
	h.upStreak, h.downStreak = 0, 0
	return Hold
}

// fired resets the streaks and arms the post-action cooldown.
func (h *hysteresis) fired() {
	h.upStreak, h.downStreak = 0, 0
	h.cooldown = h.cooldownTicks
}

// Queue-pressure thresholds in outstanding requests per provisioned
// replica: above upPressure the pool is under-provisioned (roughly one
// decode batch of headroom before TTFT starts stretching), below
// downPressure it is over-provisioned.
const (
	upPressure   float64 = 8
	downPressure float64 = 1
)

// QueuePressure scales on queue depth per provisioned replica — the
// TTFT-pressure proxy: outstanding requests beyond what the provisioned
// replicas can batch stretch time-to-first-token linearly. Hysteresis
// (streaks + cooldown) keeps oscillating load from flapping the pool.
type QueuePressure struct {
	h hysteresis
}

// NewQueuePressure returns a queue-pressure policy.
func NewQueuePressure() *QueuePressure {
	return &QueuePressure{h: reactiveHysteresis()}
}

// Name implements Policy.
func (p *QueuePressure) Name() string { return NameQueuePressure }

// Decide implements Policy.
func (p *QueuePressure) Decide(s Signals) Decision {
	wantUp := s.Pressure() >= upPressure && s.Provisioned() < s.Max
	// Shrinking is judged against the post-shrink pool: the remaining
	// replicas must still sit below the scale-up band, or the pool would
	// flap straight back up. Shrinking to zero replicas (Min = 0) is only
	// sane when nothing is outstanding — the gateway would buffer new
	// arrivals, but in-band work must not be orphaned into a cold start.
	wantDown := false
	if s.Active > s.Min && s.Warming == 0 {
		if rest := s.Provisioned() - 1; rest > 0 {
			after := float64(s.Outstanding) / float64(rest)
			wantDown = s.Pressure() <= downPressure && after < upPressure
		} else {
			wantDown = s.Outstanding == 0
		}
	}
	return p.h.decide(wantUp, wantDown)
}

// KV-utilization thresholds as pooled used-page fractions: above
// highUtil the pool is memory-pressured (admissions start stalling and
// pinned prefixes get evicted), below lowUtil it is over-provisioned.
const (
	highUtil float64 = 0.85
	lowUtil  float64 = 0.30
)

// KVUtilization scales on pooled KV-page utilization: a pool running hot on
// KV memory evicts pinned prefixes and stalls admissions long before queues
// look deep, so memory is the earlier congestion signal for long-context
// session workloads. Scale-down additionally requires the queue to be
// near-empty — low memory use with a deep queue means short contexts, not
// idle capacity.
type KVUtilization struct {
	h hysteresis
}

// NewKVUtilization returns a KV-utilization policy.
func NewKVUtilization() *KVUtilization {
	return &KVUtilization{h: reactiveHysteresis()}
}

// Name implements Policy.
func (p *KVUtilization) Name() string { return NameKVUtilization }

// Decide implements Policy.
func (p *KVUtilization) Decide(s Signals) Decision {
	wantUp := s.KVUtil >= highUtil && s.Provisioned() < s.Max && s.Warming == 0
	wantDown := s.Active > s.Min && s.Warming == 0 &&
		s.KVUtil <= lowUtil && float64(s.Outstanding) <= float64(s.Active)
	if s.Min == 0 && s.Warming == 0 && s.Active > 0 &&
		s.Outstanding == 0 && s.Arrivals == 0 && s.Gateway == 0 {
		// Scale-to-zero: a pool with no work anywhere is idle no matter
		// what its pinned prefixes hold the utilization at — without this
		// override warm pins (often above lowUtil) would keep an empty pool
		// alive forever.
		wantDown = true
	}
	if wantDown && s.Provisioned() == 1 && s.Outstanding > 0 {
		// The last replica never drains with work in flight — in-band
		// requests must not be orphaned into a cold start (Min = 0 only;
		// with Min >= 1 Active > Min already implies a survivor).
		wantDown = false
	}
	return p.h.decide(wantUp, wantDown)
}
