package autoscale_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/autoscale"
)

// slosig builds slo-target signals: active replicas, observed windowed P99,
// and in-band work, in a 0..4 pool (scale-to-zero bounds).
func slosig(active int, p99 time.Duration, outstanding, arrivals, gateway int) autoscale.Signals {
	return autoscale.Signals{
		Active: active, Min: 0, Max: 4,
		Outstanding: outstanding, Arrivals: arrivals, Gateway: gateway,
		P99TTFT: p99, TickSeconds: 1, WarmupSeconds: 5,
	}
}

func TestSLOTargetControl(t *testing.T) {
	cases := []struct {
		name   string
		script []tick
	}{
		{
			// P99 above target for the streak scales up; the cooldown then
			// swallows the (lagging) high percentile.
			name: "over-target-scales-up",
			script: script(
				fires(upStreak, slosig(1, 4*time.Second, 10, 5, 0), autoscale.ScaleUp),
				repeat(cooldown, tick{slosig(1, 4*time.Second, 10, 5, 0), autoscale.Hold}),
			),
		},
		{
			// A warm-up in flight blocks stacking even with P99 still high.
			name:   "warming-blocks-stacking",
			script: repeat(2*downStreak, tick{sigWarm(1, 1, 4*time.Second), autoscale.Hold}),
		},
		{
			// P99 inside the target band holds; only well below it (or
			// idle) shrinks, and never the last loaded replica.
			name: "in-band-holds-last-replica-stays",
			script: script(
				repeat(2*downStreak, tick{slosig(1, 1900*time.Millisecond, 5, 2, 0), autoscale.Hold}),
				// Far below the target, but loaded.
				repeat(2*downStreak, tick{slosig(1, 100*time.Millisecond, 5, 2, 0), autoscale.Hold}),
			),
		},
		{
			// A fully idle pool walks down to zero replicas.
			name:   "idle-scales-to-zero",
			script: fires(downStreak, slosig(1, 0, 0, 0, 0), autoscale.ScaleDown),
		},
		{
			// Buffered gateway demand forces growth from zero even though
			// the empty TTFT window reads as zero pressure.
			name: "gateway-demand-scales-from-zero",
			script: []tick{
				{slosig(0, 0, 0, 3, 3), autoscale.Hold},
				{slosig(0, 0, 0, 2, 5), autoscale.ScaleUp},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runScript(t, autoscale.NewSLOTarget(2*time.Second), tc.script)
		})
	}
}

// sigWarm is slosig with warming replicas.
func sigWarm(active, warming int, p99 time.Duration) autoscale.Signals {
	s := slosig(active, p99, 10, 5, 0)
	s.Warming = warming
	return s
}

// ratesig builds predictive signals from a per-tick arrival count.
func ratesig(active, arrivals int) autoscale.Signals {
	return autoscale.Signals{
		Active: active, Min: 0, Max: 4,
		Outstanding: 2 * arrivals, Arrivals: arrivals,
		TickSeconds: 1, WarmupSeconds: 4,
	}
}

// TestPredictivePreScalesOnTrend feeds a steadily ramping arrival rate and
// checks the policy grows the pool before the instantaneous rate alone
// would justify it — the forecast horizon covers the warm-up.
func TestPredictivePreScalesOnTrend(t *testing.T) {
	p := autoscale.NewPredictive(2)
	scaledAt, rate := -1, 0.0
	for i := 0; i < 30; i++ {
		rate += 0.25 // ramp: +0.25 req/s per tick
		if d := p.Decide(ratesig(1, int(rate))); d == autoscale.ScaleUp {
			scaledAt = i
			break
		}
	}
	if scaledAt < 0 {
		t.Fatal("predictive never scaled up on a steady ramp")
	}
	// At 2 req/s one replica saturates (rate == RatePerReplica): a purely
	// reactive sizing needs rate > 2, i.e. tick 8+. The forecast must fire
	// earlier — it sees the trend crossing the threshold inside the
	// warm-up horizon.
	if instRate := float64(scaledAt+1) * 0.25; instRate > 2 {
		t.Errorf("scaled only at tick %d (rate %.2f): no earlier than reactive sizing",
			scaledAt, instRate)
	}
}

// TestPredictiveForecastError checks the Forecaster accounting: constant
// rate forecasts converge to (near) zero error, and scored sample counts
// grow once the horizon has passed.
func TestPredictiveForecastError(t *testing.T) {
	p := autoscale.NewPredictive(10)
	for i := 0; i < 40; i++ {
		p.Decide(ratesig(1, 4))
	}
	mae, n := p.ForecastError()
	if n == 0 {
		t.Fatal("no forecasts scored after 40 ticks")
	}
	if mae > 1.0 {
		t.Errorf("constant 4 req/s rate: forecast MAE %.3f req/s too large", mae)
	}
	if math.IsNaN(mae) || mae < 0 {
		t.Errorf("degenerate MAE %v", mae)
	}
}

// TestPredictiveScaleToZero: a rate that decays to nothing walks the pool
// down, but never drains the last replica while work is outstanding.
func TestPredictiveScaleToZero(t *testing.T) {
	p := autoscale.NewPredictive(2)
	// Prime with load, then go idle.
	for i := 0; i < 5; i++ {
		p.Decide(ratesig(2, 4))
	}
	sawDown := false
	for i := 0; i < 20; i++ {
		s := ratesig(1, 0)
		s.Outstanding = 3 // still busy: must not orphan work
		if d := p.Decide(s); d == autoscale.ScaleDown {
			t.Fatalf("tick %d: drained the last replica with work outstanding", i)
		}
	}
	// Holt's trend overshoots after the drop and turns briefly positive,
	// which blocks shrinking; the down streak starts once it settles.
	for i := 0; i < 60; i++ {
		if d := p.Decide(ratesig(1, 0)); d == autoscale.ScaleDown {
			sawDown = true
			break
		}
	}
	if !sawDown {
		t.Error("idle pool never scaled toward zero")
	}
}

// TestSLOTargetGatewayBlocksShrink: buffered arrivals pin the pool up even
// when the stale window reads far below target.
func TestSLOTargetGatewayBlocksShrink(t *testing.T) {
	p := autoscale.NewSLOTarget(time.Second)
	for i := 0; i < 4*downStreak; i++ {
		s := slosig(2, 10*time.Millisecond, 0, 0, 4)
		if d := p.Decide(s); d == autoscale.ScaleDown {
			t.Fatalf("tick %d: scaled down with %d requests buffered in the gateway", i, s.Gateway)
		}
	}
}
