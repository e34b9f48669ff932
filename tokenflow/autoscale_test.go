package tokenflow_test

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/tokenflow"
)

// spikeWorkload is the autoscaling study workload: multi-turn sessions
// with periodic flash crowds — baseline load a small pool handles, spikes
// it cannot.
func spikeWorkload() tokenflow.Workload {
	return tokenflow.SessionSpikesWorkload(220, 240, 60, 20, 7)
}

func runCluster(t *testing.T, cfg tokenflow.ClusterConfig, w tokenflow.Workload) *tokenflow.ClusterResult {
	t.Helper()
	res, err := tokenflow.RunCluster(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.TimedOut {
		t.Fatal("cluster run timed out")
	}
	return res
}

// TestAutoscaleStaticReproducesRunCluster: with min = max = N and a policy
// that can therefore never act, the autoscaled cluster must reproduce the
// plain RunCluster results exactly.
func TestAutoscaleStaticReproducesRunCluster(t *testing.T) {
	w := tokenflow.SessionWorkload(60, 120, 20, 9)
	base := tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: 3,
		Router:   tokenflow.RouterSessionAffinity,
	}
	static := runCluster(t, base, w)

	scaled := base
	scaled.Autoscale = &tokenflow.AutoscaleSpec{MinReplicas: 3}
	auto := runCluster(t, scaled, w)

	if !reflect.DeepEqual(static.Cluster, auto.Cluster) {
		t.Errorf("min=max autoscaled cluster result differs from static RunCluster")
	}
	if static.Imbalance != auto.Imbalance || static.PrefixHits != auto.PrefixHits {
		t.Errorf("imbalance/hits differ: %v/%d vs %v/%d",
			static.Imbalance, static.PrefixHits, auto.Imbalance, auto.PrefixHits)
	}
	if auto.ScaleUps != 0 || auto.ScaleDowns != 0 {
		t.Errorf("min=max cluster scaled: %d ups, %d downs", auto.ScaleUps, auto.ScaleDowns)
	}
}

// TestAutoscaleSpecReusable: RunCluster must not write resolved defaults
// back through the caller's spec pointer — the same spec driving pools of
// different sizes must size each pool independently.
func TestAutoscaleSpecReusable(t *testing.T) {
	w := tokenflow.SessionWorkload(20, 60, 20, 9)
	spec := &tokenflow.AutoscaleSpec{MinReplicas: 1, Warmup: 2 * time.Second}
	before := *spec
	for _, n := range []int{2, 4} {
		res := runCluster(t, tokenflow.ClusterConfig{
			Config:    tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas:  n,
			Router:    tokenflow.RouterLeastQueue,
			Autoscale: spec,
		}, w)
		if got := len(res.Replicas); got != n {
			t.Errorf("Replicas=%d run built a %d-replica pool", n, got)
		}
	}
	if !reflect.DeepEqual(*spec, before) {
		t.Errorf("RunCluster wrote into the caller's spec: %+v, was %+v", *spec, before)
	}
}

// TestAutoscaleMinOverMaxErrors: a MinReplicas above the replica layout
// size (the autoscaling maximum) is a configuration error, not a panic.
func TestAutoscaleMinOverMaxErrors(t *testing.T) {
	w := tokenflow.SessionWorkload(5, 30, 20, 9)
	for _, cfg := range []tokenflow.ClusterConfig{
		{Replicas: 2},
		{ReplicaSpecs: []tokenflow.ReplicaSpec{{GPU: "RTX-4090", Count: 3}}},
	} {
		cfg.Config = tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"}
		cfg.Router = tokenflow.RouterLeastQueue
		cfg.Autoscale = &tokenflow.AutoscaleSpec{MinReplicas: 4}
		if _, err := tokenflow.RunCluster(cfg, w); err == nil {
			t.Errorf("MinReplicas 4 over a %d+%v layout should fail", cfg.Replicas, cfg.ReplicaSpecs)
		}
	}
}

// TestAutoscaleRejectsNegativeTuning: a negative SLO target or a negative
// or NaN forecast rate is an error under every policy, not a controller
// that runs with its sign flipped (or a NaN pool size) and never scales up.
func TestAutoscaleRejectsNegativeTuning(t *testing.T) {
	w := tokenflow.SessionWorkload(5, 30, 20, 9)
	cases := []struct {
		name string
		spec tokenflow.AutoscaleSpec
		want string // substring of the error
	}{
		{"negative-slo-target", tokenflow.AutoscaleSpec{
			Policy: tokenflow.AutoscaleSLOTarget, TargetP99TTFT: -2 * time.Second}, "target P99 TTFT -2s"},
		{"negative-slo-target-other-policy", tokenflow.AutoscaleSpec{
			Policy: tokenflow.AutoscaleQueuePressure, TargetP99TTFT: -time.Second}, "target P99 TTFT -1s"},
		{"negative-forecast-rate", tokenflow.AutoscaleSpec{
			Policy: tokenflow.AutoscalePredictive, ForecastRatePerReplica: -1}, "forecast rate -1"},
		{"negative-forecast-rate-other-policy", tokenflow.AutoscaleSpec{
			Policy: tokenflow.AutoscaleKVUtilization, ForecastRatePerReplica: -0.5}, "forecast rate -0.5"},
		{"NaN-forecast-rate", tokenflow.AutoscaleSpec{
			Policy: tokenflow.AutoscalePredictive, ForecastRatePerReplica: math.NaN()}, "forecast rate NaN"},
	}
	for _, c := range cases {
		spec := c.spec
		_, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:    tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas:  2,
			Router:    tokenflow.RouterLeastQueue,
			Autoscale: &spec,
		}, w)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RunCluster = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestAutoscaleBeatsFixedPools is the headline trade: under the spike
// workload, the autoscaled pool with KV pre-warming must beat the fixed
// small pool on P99 TTFT (it adds capacity when spikes land) and the fixed
// large pool on GPU-seconds (it gives capacity back between spikes).
func TestAutoscaleBeatsFixedPools(t *testing.T) {
	w := spikeWorkload()
	base := tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"}
	const small, large = 1, 4

	fixedSmall := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: small, Router: tokenflow.RouterSessionAffinity,
	}, w)
	fixedLarge := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: large, Router: tokenflow.RouterSessionAffinity,
	}, w)
	auto := runCluster(t, tokenflow.ClusterConfig{
		Config: base, Replicas: large, Router: tokenflow.RouterSessionAffinity,
		Autoscale: &tokenflow.AutoscaleSpec{
			MinReplicas: small,
			Warmup:      5 * time.Second, Prewarm: true,
		},
	}, w)

	t.Logf("fixed-small: P99 %.2fs, GPU-s %.0f", fixedSmall.Cluster.P99TTFT.Seconds(), fixedSmall.GPUSeconds)
	t.Logf("fixed-large: P99 %.2fs, GPU-s %.0f", fixedLarge.Cluster.P99TTFT.Seconds(), fixedLarge.GPUSeconds)
	t.Logf("autoscaled:  P99 %.2fs, GPU-s %.0f, ups %d, downs %d, stalls %d, prewarmed %d tokens",
		auto.Cluster.P99TTFT.Seconds(), auto.GPUSeconds, auto.ScaleUps, auto.ScaleDowns,
		auto.WarmupStalls, auto.PrewarmedTokens)

	if auto.ScaleUps == 0 {
		t.Fatal("the spike workload never triggered a scale-up")
	}
	if auto.Cluster.P99TTFT >= fixedSmall.Cluster.P99TTFT {
		t.Errorf("autoscaled P99 TTFT %v >= fixed-small %v",
			auto.Cluster.P99TTFT, fixedSmall.Cluster.P99TTFT)
	}
	if auto.GPUSeconds >= fixedLarge.GPUSeconds {
		t.Errorf("autoscaled GPU-seconds %.0f >= fixed-large %.0f",
			auto.GPUSeconds, fixedLarge.GPUSeconds)
	}
}

// scaledUpHitRate is the post-scale-up prefix hit rate: hits per routed
// request over the replicas that started off and were scaled in.
func scaledUpHitRate(res *tokenflow.ClusterResult, initial int) (float64, int) {
	var hits, routed int64
	for _, rr := range res.Replicas[initial:] {
		hits += rr.PrefixHits
		routed += int64(rr.Routed)
	}
	if routed == 0 {
		return 0, 0
	}
	return float64(hits) / float64(routed), int(routed)
}

// TestPrewarmBeatsColdWarmup: pre-warming must lift the post-scale-up
// prefix hit rate over a cold warm-up — the new replica starts with the
// hottest sessions' KV already resident.
func TestPrewarmBeatsColdWarmup(t *testing.T) {
	w := spikeWorkload()
	run := func(prewarm bool) *tokenflow.ClusterResult {
		return runCluster(t, tokenflow.ClusterConfig{
			Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas: 4,
			Router:   tokenflow.RouterSessionAffinity,
			Autoscale: &tokenflow.AutoscaleSpec{
				MinReplicas: 1,
				Warmup:      5 * time.Second, Prewarm: prewarm,
			},
		}, w)
	}
	warm := run(true)
	cold := run(false)

	warmRate, warmRouted := scaledUpHitRate(warm, 1)
	coldRate, coldRouted := scaledUpHitRate(cold, 1)
	t.Logf("prewarm: post-scale-up hit rate %.3f over %d routed (%d prewarmed tokens, %d migrations)",
		warmRate, warmRouted, warm.PrewarmedTokens, warm.Prewarms)
	t.Logf("cold:    post-scale-up hit rate %.3f over %d routed", coldRate, coldRouted)

	if warm.ScaleUps == 0 || cold.ScaleUps == 0 {
		t.Fatal("no scale-ups to compare")
	}
	if warm.Prewarms == 0 || warm.PrewarmedTokens == 0 {
		t.Fatal("prewarm run shipped no pins")
	}
	if cold.Prewarms != 0 {
		t.Fatalf("cold run pre-warmed %d pins", cold.Prewarms)
	}
	if warmRouted == 0 {
		t.Fatal("scaled-up replicas received no traffic")
	}
	if warmRate <= coldRate {
		t.Errorf("pre-warmed post-scale-up hit rate %.3f <= cold %.3f", warmRate, coldRate)
	}
}
