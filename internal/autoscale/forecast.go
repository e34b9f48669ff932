package autoscale

// Second-generation control policies: instead of reacting to the
// instantaneous queue, slo-target closes a feedback loop on the observed
// tail latency and predictive feeds a forward model of the arrival rate.
// Both keep the same hysteresis discipline (streaks + cooldown) as the
// reactive policies, and both understand scale-to-zero pools: a non-empty
// gateway is unconditional evidence of demand, and a fully idle pool may
// shrink to Min even when Min is zero.

import (
	"math"
	"time"
)

// defaultSLOTarget is the slo-target policy's P99 TTFT goal when none is
// given.
const defaultSLOTarget = 2 * time.Second

// SLO-target controller tuning.
const (
	// kp and ki are the proportional and integral gains over the relative
	// error (observed − target)/target. The integral term accumulates per
	// tick (scaled by the tick length) and is clamped to ±integralClamp
	// to stop windup across a long warm-up.
	kp            float64 = 1.0
	ki            float64 = 0.1
	integralClamp float64 = 4

	// downBand is how far below zero the control signal must sit before
	// the pool shrinks: observed P99 must be comfortably inside the
	// target, not merely touching it.
	downBand float64 = 0.5

	// stackBand is the control-signal level above which growth no longer
	// waits for an in-flight warm-up (observed P99 at 3× the target):
	// when the excursion is that deep, serial warm-ups would converge too
	// slowly and warm-ups may stack.
	stackBand float64 = 2

	// shrinkPressure caps the post-shrink outstanding requests per
	// remaining replica. Latency is a cliff function of capacity — a
	// comfortable P99 says nothing about the P99 one replica fewer would
	// produce — so shrinking additionally requires the surviving replicas
	// to stay lightly loaded by queue count.
	shrinkPressure float64 = 2
)

// SLOTarget is a PID-style controller on the observed windowed P99 TTFT:
// the error is the relative excursion from the target, the control signal
// is Kp·error + Ki·∫error, and the sign of the signal (through the
// hysteresis streaks) decides growth or shrinkage. Compared to
// queue-pressure it scales on the symptom the SLO actually names — tail
// latency — so it holds the target band on workloads where a fixed queue
// threshold would be mistuned.
type SLOTarget struct {
	target   time.Duration
	h        hysteresis
	integral float64
}

// NewSLOTarget returns an slo-target policy driving the windowed P99 TTFT
// toward target (zero selects defaultSLOTarget).
func NewSLOTarget(target time.Duration) *SLOTarget {
	if target == 0 {
		target = defaultSLOTarget
	}
	return &SLOTarget{target: target, h: reactiveHysteresis()}
}

// Name implements Policy.
func (p *SLOTarget) Name() string { return NameSLOTarget }

// ObservesTTFT implements TTFTObserver: the controller's feedback signal
// is the windowed P99.
func (p *SLOTarget) ObservesTTFT() bool { return true }

// Decide implements Policy.
func (p *SLOTarget) Decide(s Signals) Decision {
	target := p.target.Seconds()
	tick := s.TickSeconds
	if tick <= 0 {
		tick = 1
	}
	// An empty window is absence of evidence, not a zero-latency reading:
	// integrating its err = −1 through an idle stretch would wind the
	// integrator to the negative clamp and sit on the next burst's SLO
	// breach while it unwinds. With no samples the error is neutral and
	// the integral holds.
	err := 0.0
	if s.P99TTFT > 0 {
		err = (s.P99TTFT.Seconds() - target) / target
		p.integral += err * tick
		if p.integral > integralClamp {
			p.integral = integralClamp
		} else if p.integral < -integralClamp {
			p.integral = -integralClamp
		}
	}
	u := kp*err + ki*p.integral

	// A non-empty gateway means demand with zero capacity: latency is
	// accruing that no window sample shows yet. Growth requires live
	// demand — high window samples outlive a vanished burst by up to the
	// window length, and warming an idle pool on that ghost just burns a
	// warm-up. It normally also waits for any in-flight warm-up (the P99
	// signal lags the capacity it asked for; stacking warm-ups on a
	// sticky-high percentile over-scales) — unless the excursion is deep
	// enough (stackBand) that serial warm-ups would converge too slowly.
	demand := s.Outstanding > 0 || s.Arrivals > 0 || s.Gateway > 0
	wantUp := (u > 0 || s.Gateway > 0) && demand && s.Provisioned() < s.Max &&
		(s.Warming == 0 || u > stackBand)
	idle := s.Outstanding == 0 && s.Arrivals == 0 && s.Gateway == 0
	wantDown := s.Active > s.Min && s.Warming == 0 &&
		(u < -downBand || idle) && s.Gateway == 0
	if wantDown && !idle {
		if rest := s.Provisioned() - 1; rest > 0 {
			// The queue guard: survivors must stay lightly loaded, or the
			// pool would fall off the latency cliff and flap back up.
			wantDown = float64(s.Outstanding)/float64(rest) <= shrinkPressure
		} else {
			// The last replica only leaves when the pool is truly idle; a
			// below-target P99 with work in flight is success, not surplus.
			wantDown = false
		}
	}
	return p.h.decide(wantUp, wantDown)
}

// defaultRatePerReplica is the predictive policy's capacity model when
// none is given: the steady arrival rate (req/s) one replica absorbs
// without queue growth, roughly one RTX-4090 Llama3-8B replica on the
// multi-turn session workloads.
const defaultRatePerReplica = 0.6

// Predictive-policy tuning.
const (
	// holtAlpha and holtBeta are the Holt double-exponential smoothing
	// gains for the arrival-rate level and trend.
	holtAlpha float64 = 0.35
	holtBeta  float64 = 0.15

	// The forecast is already smoothed, so growth acts on the first tick
	// that asks for it, and the cooldown is short so a steep ramp can
	// stack warm-ups. Shrinking waits the reactive policies' downTicks.
	predictiveUpTicks       = 1
	predictiveCooldownTicks = 2
)

// pendingForecast is a rate prediction waiting for its due tick, scored
// against the rate actually observed then.
type pendingForecast struct {
	dueTick int
	rate    float64
}

// Predictive scales on a Holt (level + trend) forecast of the arrival
// rate, evaluated one warm-up latency ahead: if demand predicted for the
// moment a replica started now would finish warming exceeds what the
// provisioned pool absorbs, the warm-up starts now — hiding the warm-up
// stall a reactive policy pays after the queue has already built. The
// forecast error (MAE of rate predictions at their due ticks) is exposed
// through Forecaster.
type Predictive struct {
	ratePerReplica float64
	h              hysteresis

	init         bool
	level, trend float64

	tick    int
	pending []pendingForecast
	absErr  float64
	scored  int
}

// NewPredictive returns a predictive policy that sizes the pool at
// ratePerReplica req/s per replica (zero selects defaultRatePerReplica).
func NewPredictive(ratePerReplica float64) *Predictive {
	if ratePerReplica == 0 {
		ratePerReplica = defaultRatePerReplica
	}
	return &Predictive{ratePerReplica: ratePerReplica, h: hysteresis{
		upTicks: predictiveUpTicks, downTicks: downTicks, cooldownTicks: predictiveCooldownTicks,
	}}
}

// Name implements Policy.
func (p *Predictive) Name() string { return NamePredictive }

// ForecastError implements Forecaster.
func (p *Predictive) ForecastError() (mae float64, samples int) {
	if p.scored == 0 {
		return 0, 0
	}
	return p.absErr / float64(p.scored), p.scored
}

// Decide implements Policy.
func (p *Predictive) Decide(s Signals) Decision {
	tick := s.TickSeconds
	if tick <= 0 {
		tick = 1
	}
	rate := float64(s.Arrivals) / tick

	// Score forecasts that have come due before folding in this tick.
	for len(p.pending) > 0 && p.pending[0].dueTick <= p.tick {
		p.absErr += math.Abs(p.pending[0].rate - rate)
		p.scored++
		p.pending = p.pending[1:]
	}

	if !p.init {
		p.init = true
		p.level = rate
	} else {
		prev := p.level
		p.level = holtAlpha*rate + (1-holtAlpha)*(p.level+p.trend)
		p.trend = holtBeta*(p.level-prev) + (1-holtBeta)*p.trend
	}

	// Forecast at the warm-up horizon: the rate expected when a replica
	// started this tick would begin taking traffic. The trend is a
	// per-tick slope (it advances once per Decide), so the horizon is
	// extrapolated in ticks, not seconds — the two only coincide at the
	// default 1s control period.
	horizon := s.WarmupSeconds + tick
	hTicks := int(math.Ceil(horizon / tick))
	if hTicks < 1 {
		hTicks = 1
	}
	forecast := p.level + p.trend*float64(hTicks)
	if forecast < 0 {
		forecast = 0
	}
	// Dead air is not a prediction: an idle pool (zero rate, zero
	// forecast) scoring |0 − 0| every tick would dilute the reported MAE
	// into flattery. Only live forecasts enter the score.
	if forecast > 0 || rate > 0 {
		p.pending = append(p.pending, pendingForecast{dueTick: p.tick + hTicks, rate: forecast})
	}
	p.tick++

	need := int(math.Ceil(forecast / p.ratePerReplica))
	if s.Gateway > 0 && need < 1 {
		need = 1 // buffered demand is demand, whatever the smoothed rate says
	}
	if need > s.Max {
		need = s.Max
	}
	if need < s.Min {
		need = s.Min
	}
	wantUp := need > s.Provisioned()
	// Shrinking is gated on the trend: while demand is still rising a
	// momentary dip in the smoothed rate is noise, and giving capacity
	// back mid-ramp just buys another warm-up stall minutes later.
	wantDown := need < s.Provisioned() && p.trend <= 0 &&
		s.Warming == 0 && s.Active > s.Min && s.Gateway == 0
	if wantDown && s.Provisioned()-1 == 0 && s.Outstanding > 0 {
		wantDown = false // never orphan in-flight work into a cold start
	}
	return p.h.decide(wantUp, wantDown)
}
