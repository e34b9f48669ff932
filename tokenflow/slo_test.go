package tokenflow_test

// Acceptance tests for the second-generation autoscaling policies and the
// scale-to-zero gateway, at the public API:
//
//   - slo-target holds the observed P99 TTFT inside its target band (in
//     the converged phase) where a fixed small pool misses it by orders
//     of magnitude;
//   - predictive beats the reactive queue-pressure policy on
//     warm-up-stalled arrivals under a ramp workload — capacity lands
//     before the demand instead of after the queue;
//   - a scale-to-zero pool buffers cold arrivals in the gateway, charges
//     the wait inside TTFT, and returns to zero replicas when idle.

import (
	"sort"
	"testing"
	"time"

	"repro/tokenflow"
)

// phaseP99 computes the P99 TTFT over the requests of w that arrived at
// or after the cutoff and produced a token — the converged-phase view that
// separates steady-state control quality from the cold-start transient
// every min=1 pool pays.
func phaseP99(res *tokenflow.ClusterResult, w tokenflow.Workload, after tokenflow.Time) time.Duration {
	var ttfts []time.Duration
	for _, r := range res.Cluster.Requests {
		if !r.TTFTCensored && w[r.ID].Arrival >= after {
			ttfts = append(ttfts, r.TTFT)
		}
	}
	if len(ttfts) == 0 {
		return 0
	}
	sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
	return ttfts[(len(ttfts)*99+99)/100-1]
}

// TestSLOTargetHoldsBand: on a steady session load that buries one
// replica, the slo-target controller keeps converged-phase P99 TTFT inside
// its target band while the fixed small pool misses the target by orders
// of magnitude.
func TestSLOTargetHoldsBand(t *testing.T) {
	w := tokenflow.SessionWorkload(200, 240, 20, 7)
	base := tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"}
	target := 2500 * time.Millisecond

	fixedSmall := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: 1, Router: tokenflow.RouterSessionAffinity,
	}, w)
	slo := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: 4, Router: tokenflow.RouterSessionAffinity,
		Autoscale: &tokenflow.AutoscaleSpec{
			Policy:        tokenflow.AutoscaleSLOTarget,
			MinReplicas:   1,
			Warmup:        5 * time.Second,
			TargetP99TTFT: target,
		},
	}, w)

	converged := tokenflow.Time(120 * time.Second) // past the min=1 cold-start transient
	smallP99 := phaseP99(fixedSmall, w, converged)
	sloP99 := phaseP99(slo, w, converged)
	t.Logf("converged P99: fixed-1 %v, slo-target %v (target %v); global: %v vs %v",
		smallP99, sloP99, target, fixedSmall.Cluster.P99TTFT, slo.Cluster.P99TTFT)

	if slo.ScaleUps == 0 {
		t.Fatal("slo-target never scaled up under overload")
	}
	if sloP99 > target {
		t.Errorf("slo-target converged P99 %v outside target band %v", sloP99, target)
	}
	if smallP99 <= 4*target {
		t.Errorf("fixed-small converged P99 %v does not miss the band (test workload too light)",
			smallP99)
	}
	// The controller earns its keep on the cost axis too: below the
	// always-4 pool a static deployment would need to hold this P99.
	if slo.GPUSeconds >= 4*slo.Cluster.Makespan.Seconds() {
		t.Errorf("slo-target GPU-seconds %.0f >= fixed-4 equivalent %.0f",
			slo.GPUSeconds, 4*slo.Cluster.Makespan.Seconds())
	}
}

// TestPredictiveBeatsReactiveOnRamp: under a ramping arrival rate with a
// long warm-up, the predictive policy pre-scales ahead of forecast demand
// and stalls strictly fewer arrivals behind warm-ups than the reactive
// queue-pressure policy, which only reacts once the queue has built.
func TestPredictiveBeatsReactiveOnRamp(t *testing.T) {
	w := tokenflow.SessionRampWorkload(200, 240, 20, 7)
	base := tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"}
	spec := func(p tokenflow.AutoscalePolicy) *tokenflow.AutoscaleSpec {
		return &tokenflow.AutoscaleSpec{
			Policy:      p,
			MinReplicas: 1,
			Warmup:      10 * time.Second,
		}
	}

	reactive := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: 4, Router: tokenflow.RouterSessionAffinity,
		Autoscale: spec(tokenflow.AutoscaleQueuePressure),
	}, w)
	predictive := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: 4, Router: tokenflow.RouterSessionAffinity,
		Autoscale: spec(tokenflow.AutoscalePredictive),
	}, w)

	t.Logf("reactive:   %d stalls, %d ups, P99 %v", reactive.WarmupStalls,
		reactive.ScaleUps, reactive.Cluster.P99TTFT)
	t.Logf("predictive: %d stalls, %d ups, P99 %v, forecast MAE %.2f req/s over %d",
		predictive.WarmupStalls, predictive.ScaleUps, predictive.Cluster.P99TTFT,
		predictive.ForecastError, predictive.ForecastSamples)

	if reactive.ScaleUps == 0 || predictive.ScaleUps == 0 {
		t.Fatal("ramp never triggered scaling")
	}
	if reactive.WarmupStalls == 0 {
		t.Fatal("reactive policy paid no warm-up stalls: the ramp is too easy to discriminate")
	}
	if predictive.WarmupStalls >= reactive.WarmupStalls {
		t.Errorf("predictive stalled %d arrivals >= reactive's %d: forecast bought nothing",
			predictive.WarmupStalls, reactive.WarmupStalls)
	}
	if predictive.ForecastSamples == 0 {
		t.Error("predictive scored no forecasts")
	}
	if predictive.ForecastError <= 0 {
		t.Error("zero forecast error on a stochastic ramp is accounting, not prescience")
	}
}

// TestScaleToZeroGateway: a burst into a cold scale-to-zero pool buffers
// in the gateway, pays the warm-up inside TTFT, serves completely, and
// the pool walks back to zero replicas when the burst passes.
func TestScaleToZeroGateway(t *testing.T) {
	w := tokenflow.BurstWorkload(8, 256, 64, 20, 5)
	res := runCluster(t, tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: 2,
		Router:   tokenflow.RouterLeastQueue,
		Autoscale: &tokenflow.AutoscaleSpec{
			Policy:      tokenflow.AutoscaleSLOTarget,
			ScaleToZero: true,
			Warmup:      4 * time.Second,
		},
	}, w)

	if res.Cluster.Finished != len(w) {
		t.Fatalf("finished %d/%d", res.Cluster.Finished, len(w))
	}
	if res.GatewayBuffered != int64(len(w)) || res.GatewayShed != 0 {
		t.Errorf("buffered/shed = %d/%d, want %d/0", res.GatewayBuffered, res.GatewayShed, len(w))
	}
	// Every burst request waited out the cold start: the 4s warm-up is
	// inside each TTFT.
	for _, r := range res.Cluster.Requests {
		if r.TTFT < 4*time.Second {
			t.Errorf("request %d TTFT %v under the 4s cold-start warm-up", r.ID, r.TTFT)
		}
	}
	// The pool returned to zero replicas after the burst.
	for _, rep := range res.Replicas {
		if rep.State != "off" {
			t.Errorf("pool did not return to zero: replica %d ends %q", rep.ID, rep.State)
		}
	}
	offs := 0
	for _, ev := range res.ScaleEvents {
		if ev.Kind == "off" {
			offs++
		}
	}
	if offs == 0 {
		t.Error("no replica ever turned off after the burst")
	}
}
