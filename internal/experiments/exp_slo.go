package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// sloWorkload builds the demand shapes of the SLO study: "ramp" grows the
// session-start density linearly over the window (a forecastable trend),
// "spike" packs half the sessions into periodic flash crowds (level
// shifts no forecast sees coming).
func sloWorkload(shape string) trace.Workload {
	cfg := trace.SessionConfig{
		Sessions: scaled(200),
		Duration: scaledDur(240),
		Rates:    trace.FixedRate(20),
		Seed:     7,
	}
	switch shape {
	case "ramp":
		cfg.RampUp = true
	case "spike":
		cfg.SpikeEvery = scaledDur(60)
	}
	return trace.Sessions("slo-"+shape, cfg)
}

// convergedP99 is the P99 TTFT over requests arriving in the second half
// of the window — steady-state control quality, with the min=1 cold-start
// transient excluded.
func convergedP99(res *cluster.Result, after simclock.Time) time.Duration {
	var ttfts []time.Duration
	for _, r := range res.Requests {
		if r.Generated > 0 && r.Arrival >= after {
			ttfts = append(ttfts, r.TTFT())
		}
	}
	if len(ttfts) == 0 {
		return 0
	}
	sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
	return metrics.Percentile(ttfts, 0.99)
}

// ExpSLO studies the second policy generation: reactive queue-pressure
// versus predictive (Holt arrival-rate forecast) versus slo-target (PID on
// windowed P99) across demand shape × P99 target, against fixed pools.
// The questions: does forecasting buy fewer warm-up-stalled arrivals on a
// ramp than reacting to the queue, does it still on unforecastable
// spikes, and does the latency controller hold its target band at less
// GPU cost than the fixed large pool?
func ExpSLO() (*Table, error) {
	const minReps, maxReps = 1, 4
	warmup := 10 * time.Second

	type variant struct {
		shape  string  // ramp | spike
		mode   string  // fixed-1 | fixed-4 | reactive | predictive | slo
		target float64 // slo-target P99 goal in seconds (slo mode only)
	}
	var variants []variant
	for _, shape := range []string{"ramp", "spike"} {
		variants = append(variants,
			variant{shape, "fixed-1", 0},
			variant{shape, "fixed-4", 0},
			variant{shape, "reactive", 0},
			variant{shape, "predictive", 0},
			variant{shape, "slo", 2.5},
			variant{shape, "slo", 5})
	}

	build := cluster.Engines([]cluster.Deployment{dep4090Llama}, tokenFlow.Make)
	results, err := runCells(len(variants), func(i int) (*cluster.Result, error) {
		v := variants[i]
		cfg := cluster.Config{
			Replicas: maxReps,
			Policy:   router.NewSessionAffinity(),
		}
		switch v.mode {
		case "fixed-1":
			cfg.Replicas = minReps
		case "fixed-4":
			// static pool at max size
		default:
			var pol autoscale.Policy
			switch v.mode {
			case "reactive":
				pol = autoscale.NewQueuePressure()
			case "predictive":
				pol = autoscale.NewPredictive(0)
			case "slo":
				pol = autoscale.NewSLOTarget(time.Duration(v.target * float64(time.Second)))
			}
			cfg.Autoscale = &cluster.AutoscaleConfig{
				Policy: pol,
				Min:    minReps, Max: maxReps,
				Warmup:  warmup,
				Prewarm: true,
			}
		}
		res, err := runCluster(cfg, build, sloWorkload(v.shape))
		if err != nil {
			return nil, fmt.Errorf("slo %+v: %w", v, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "SLO",
		Title: "Predictive and SLO-target autoscaling: demand shape × policy × P99 target, " +
			"1..4 TokenFlow replicas, 10s warm-up",
		Header: []string{"shape", "mode", "target", "P99-TTFT", "conv-P99", "GPU-s",
			"ups", "stalls", "fc-MAE(req/s)"},
	}
	half := scaledDur(120)
	for i, v := range variants {
		res := results[i]
		target, mae := "-", "-"
		if v.mode == "slo" {
			target = ffloat(v.target, 1) + "s"
		}
		if v.mode == "predictive" {
			mae = ffloat(res.ForecastError, 2)
		}
		t.Rows = append(t.Rows, []string{
			v.shape,
			v.mode,
			target,
			fsec(res.Report.P99TTFT),
			fsec(convergedP99(res, half)),
			ffloat(res.GPUSeconds, 0),
			fint(int64(countKind(res, cluster.ScaleWarmup) + countKind(res, cluster.ScaleReactivate))),
			fint(res.WarmupStalls),
			mae,
		})
	}
	t.Notes = "Expected shape: on the ramp, predictive stalls fewer arrivals than reactive " +
		"(capacity lands ahead of the trend); on spikes the forecast has nothing to see and " +
		"the gap closes. slo-target holds its converged P99 inside the target band where the " +
		"demand stabilizes (spike background) at less GPU cost than fixed-4; on the " +
		"still-growing ramp it trails the cliff, and a looser target buys GPU-seconds at the " +
		"price of deeper excursions."
	return t, nil
}
