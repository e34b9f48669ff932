// Autoscale: SLO-driven replica autoscaling with KV pre-warming, across
// two policy generations. A multi-turn session workload with periodic
// flash crowds is served by fixed pools (1 replica: cheap but buried;
// 4 replicas: fast but burning GPU-seconds all run long) and by 1..4
// autoscaled pools under four policies — reactive queue pressure,
// kv-utilization, a PID-style slo-target controller on the windowed P99
// TTFT, and a Holt-forecast predictive policy that pre-scales a warm-up
// ahead of predicted demand. The autoscaled pools land between the fixed
// pools on both axes, and pre-warming lifts the prefix hit rate on the
// replicas that scaled in.
//
// The second half demonstrates scale-to-zero: with MinReplicas 0 the pool
// goes fully dark between bursts, a gateway queue buffers the next
// burst's arrivals while the first replica cold-starts, and the buffered
// wait lands inside their TTFT.
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"log"
	"time"

	"repro/tokenflow"
)

func main() {
	// 220 conversations over 4 minutes; half of them open in flash crowds
	// every 60s. Each turn's prompt extends the previous turn's context.
	w := tokenflow.SessionSpikesWorkload(220, 240, 60, 20, 7)

	cfg := tokenflow.Config{
		System: tokenflow.SystemTokenFlow,
		GPU:    "RTX-4090",
		Model:  "Llama3-8B",
	}

	run := func(replicas int, spec *tokenflow.AutoscaleSpec) *tokenflow.ClusterResult {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:    cfg,
			Replicas:  replicas,
			Router:    tokenflow.RouterSessionAffinity,
			Autoscale: spec,
		}, w)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// The replica layout run builds (4 below) is the pool, so it is also
	// the autoscaling maximum; the spec only sets the floor.
	auto := func(prewarm bool) *tokenflow.AutoscaleSpec {
		return &tokenflow.AutoscaleSpec{
			Policy:      tokenflow.AutoscaleQueuePressure,
			MinReplicas: 1,
			Warmup:      5 * time.Second,
			Prewarm:     prewarm,
		}
	}

	fmt.Printf("%-22s %10s %10s %8s %5s %7s %12s\n",
		"pool", "p99-TTFT", "QoS", "GPU-s", "ups", "stalls", "prewarm-tok")
	row := func(name string, res *tokenflow.ClusterResult) {
		fmt.Printf("%-22s %9.2fs %10.1f %8.0f %5d %7d %12d\n",
			name, res.Cluster.P99TTFT.Seconds(), res.Cluster.QoS,
			res.GPUSeconds, res.ScaleUps, res.WarmupStalls, res.PrewarmedTokens)
	}
	row("fixed 1 replica", run(1, nil))
	row("fixed 4 replicas", run(4, nil))
	cold := run(4, auto(false))
	row("autoscaled 1..4 cold", cold)
	warm := run(4, auto(true))
	row("autoscaled 1..4 warm", warm)
	row("slo-target 2.5s", run(4, &tokenflow.AutoscaleSpec{
		Policy:        tokenflow.AutoscaleSLOTarget,
		MinReplicas:   1,
		Warmup:        5 * time.Second,
		TargetP99TTFT: 2500 * time.Millisecond,
		Prewarm:       true,
	}))
	pred := run(4, &tokenflow.AutoscaleSpec{
		Policy:      tokenflow.AutoscalePredictive,
		MinReplicas: 1,
		Warmup:      5 * time.Second,
		Prewarm:     true,
	})
	row("predictive", pred)
	fmt.Printf("\npredictive forecast: MAE %.2f req/s over %d scored forecasts\n",
		pred.ForecastError, pred.ForecastSamples)

	// The replica lifecycle the control loop drove: warm-ups when the
	// flash crowds land, drains when they pass.
	fmt.Printf("\nautoscaled (pre-warmed) lifecycle:\n")
	for _, ev := range warm.ScaleEvents {
		fmt.Printf("  t=%7.2fs  replica %d  %s\n", ev.At.Seconds(), ev.Replica, ev.Kind)
	}

	// Pre-warming pays on the replicas that scaled in: their first
	// requests find the hottest sessions' KV already resident.
	hitRate := func(res *tokenflow.ClusterResult) float64 {
		var hits, routed int64
		for _, rr := range res.Replicas[1:] {
			hits += rr.PrefixHits
			routed += int64(rr.Routed)
		}
		if routed == 0 {
			return 0
		}
		return float64(hits) / float64(routed)
	}
	fmt.Printf("\npost-scale-up prefix hit rate: %.1f%% cold vs %.1f%% pre-warmed\n",
		100*hitRate(cold), 100*hitRate(warm))

	// Scale-to-zero: two widely separated bursts; between them the pool
	// goes fully dark and burns nothing. The second burst buffers in the
	// gateway while replica 0 cold-starts — its queue time is inside TTFT.
	var bursts tokenflow.Workload
	for _, at := range []tokenflow.Time{0, tokenflow.Time(180 * time.Second)} {
		for i := 0; i < 12; i++ {
			bursts = append(bursts, tokenflow.Request{
				Arrival: at, PromptLen: 512, OutputLen: 128, Rate: 20,
			})
		}
	}
	zero, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:   cfg,
		Replicas: 2,
		Router:   tokenflow.RouterLeastQueue,
		Autoscale: &tokenflow.AutoscaleSpec{
			Policy:      tokenflow.AutoscaleSLOTarget,
			ScaleToZero: true,
			Warmup:      5 * time.Second,
		},
	}, bursts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscale-to-zero, two bursts 180s apart (5s cold start):\n")
	fmt.Printf("  %d/%d finished, %d buffered in the gateway, %d shed\n",
		zero.Cluster.Finished, len(bursts), zero.GatewayBuffered, zero.GatewayShed)
	fmt.Printf("  GPU-seconds %.0f vs %.0f for an always-on single replica\n",
		zero.GPUSeconds, zero.Cluster.Makespan.Seconds())
	fmt.Printf("  p99 TTFT %.2fs (the ~5s cold start is inside it)\n",
		zero.Cluster.P99TTFT.Seconds())
	for _, ev := range zero.ScaleEvents {
		fmt.Printf("  t=%7.2fs  replica %d  %s\n", ev.At.Seconds(), ev.Replica, ev.Kind)
	}
}
