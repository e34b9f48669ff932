package experiments

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/router"
	"repro/internal/trace"
)

// spikeWorkload is clusterWorkload with a variable flash-crowd period:
// shorter spikeEvery packs more concurrent session-opening bursts into the
// same duration — the spike-intensity axis of the autoscaling study.
func spikeWorkload(spikeEverySec float64) trace.Workload {
	return trace.Sessions("autoscale-sessions", trace.SessionConfig{
		Sessions:   scaled(220),
		Duration:   scaledDur(240),
		SpikeEvery: scaledDur(spikeEverySec),
		Rates:      trace.FixedRate(20),
		Seed:       7,
	})
}

// scaledUpHitRate is the prefix hit rate over the replicas that started
// off and were scaled in (replica IDs >= initial) — the post-scale-up
// cache effectiveness pre-warming targets.
func scaledUpHitRate(res *cluster.Result, initial int) float64 {
	var hits, routed int64
	for _, rs := range res.PerReplica[initial:] {
		hits += rs.Result.PrefixHits
		routed += int64(rs.Routed)
	}
	if routed == 0 {
		return 0
	}
	return float64(hits) / float64(routed)
}

// ExpAutoscale studies SLO-driven replica autoscaling: tail TTFT and
// GPU-seconds versus spike intensity × warm-up latency × interconnect
// bandwidth, for a 1..4-replica autoscaled pool with and without KV
// pre-warming, against fixed 1- and 4-replica pools. The sweep's question:
// when does pre-warming stop paying off? (Answer shape: it pays on the
// post-scale-up hit rate whenever the interconnect can ship the pins
// within the warm-up window; at starved bandwidth the transfers trail the
// activation and the benefit shrinks toward zero.)
func ExpAutoscale() (*Table, error) {
	const minReps, maxReps = 1, 4

	type variant struct {
		spikeEvery float64 // seconds between session flash crowds
		warmup     float64 // seconds of scale-up warm-up latency
		icGBps     float64 // interconnect bandwidth
		mode       string  // fixed-1 | fixed-4 | cold | prewarm
	}
	var variants []variant
	for _, spike := range []float64{30, 90} {
		variants = append(variants,
			variant{spike, 0, 0, "fixed-1"},
			variant{spike, 0, 0, "fixed-4"})
		for _, warmup := range []float64{2, 15} {
			for _, bw := range []float64{0.1, 25} {
				variants = append(variants,
					variant{spike, warmup, bw, "cold"},
					variant{spike, warmup, bw, "prewarm"})
			}
		}
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
			cfg.Topology = &fabric.Spec{LinkGBps: v.icGBps}
			cfg.Autoscale = &cluster.AutoscaleConfig{
				Policy:  autoscale.NewQueuePressure(),
				Min:     minReps,
				Max:     maxReps,
				Warmup:  time.Duration(v.warmup * float64(time.Second)),
				Prewarm: v.mode == "prewarm",
			}
		}
		res, err := runCluster(cfg, build, spikeWorkload(v.spikeEvery))
		if err != nil {
			return nil, fmt.Errorf("autoscale %+v: %w", v, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "Autoscale",
		Title: "SLO-driven autoscaling: spike intensity × warm-up latency × interconnect " +
			"bandwidth, 1..4 TokenFlow replicas, multi-turn spikes",
		Header: []string{"spike-every", "warmup", "ic-GB/s", "mode", "P99-TTFT", "QoS",
			"GPU-s", "ups", "downs", "stalls", "prewarm-tok", "post-up-hit%"},
	}
	for i, v := range variants {
		res := results[i]
		warmup, bw, hit := "-", "-", "-"
		if v.mode == "cold" || v.mode == "prewarm" {
			warmup = ffloat(v.warmup, 0) + "s"
			bw = ffloat(v.icGBps, 1)
			hit = ffloat(100*scaledUpHitRate(res, minReps), 1)
		}
		t.Rows = append(t.Rows, []string{
			ffloat(v.spikeEvery, 0) + "s",
			warmup,
			bw,
			v.mode,
			fsec(res.Report.P99TTFT),
			ftps(res.Report.QoS),
			ffloat(res.GPUSeconds, 0),
			fint(int64(countKind(res, cluster.ScaleWarmup) + countKind(res, cluster.ScaleReactivate))),
			fint(int64(countKind(res, cluster.ScaleDrain))),
			fint(res.WarmupStalls),
			fint(res.PrewarmedTokens),
			hit,
		})
	}
	t.Notes = "Expected shape: autoscaled pools sit between fixed-1 (P99) and fixed-4 (GPU-seconds); " +
		"longer warm-up means more stalled arrivals and worse tails; pre-warming lifts the " +
		"post-scale-up hit rate whenever the interconnect outruns the warm-up window."
	return t, nil
}

// countKind tallies scale events of one kind.
func countKind(res *cluster.Result, kind cluster.ScaleKind) int {
	n := 0
	for _, ev := range res.ScaleEvents {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
