package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// workload is one benchmark scenario: an open-loop arrival schedule of
// simulated users, generated up front from the seed, and the cluster that
// serves it. Every replica is an RTX-4090 / Llama3-8B TokenFlow engine at
// mem-frac 0.9. Sizes at scale 1 are chosen so one repetition simulates
// for about three seconds of wall time on a 2-vCPU host; -scale stretches
// the session count and the arrival window together, keeping the arrival
// rate and so the load per replica.
type workload struct {
	name string
	// gen builds the arrival schedule.
	gen func(seed int64, scale float64) trace.Workload
	// config builds the untraced cluster configuration, resolving router
	// and autoscale policies by name so later changes to what a name means
	// are measured without editing the benchmark.
	config func(scale float64) (cluster.Config, error)
	// kv is every replica's KV-management policy.
	kv engine.KVPolicy
}

// workloads lists the scenarios in BENCHMARK.json's order; its "why" field
// records the reason each one exists.
var workloads = []workload{
	{
		name: "scale-rr-500",
		gen: func(seed int64, scale float64) trace.Workload {
			return chatSessions("scale-rr-500", seed, scaledCount(20000, scale), 66*scale)
		},
		config: func(float64) (cluster.Config, error) {
			return staticConfig(500, 2, router.NameRoundRobin)
		},
		kv: engine.TokenFlowKVPolicy(),
	},
	{
		name: "scale-affinity-500",
		gen: func(seed int64, scale float64) trace.Workload {
			return chatSessions("scale-affinity-500", seed, scaledCount(6000, scale), 19.8*scale)
		},
		config: func(float64) (cluster.Config, error) {
			cfg, err := staticConfig(500, 2, router.NameSessionAffinity)
			cfg.Migrate = true
			return cfg, err
		},
		kv: engine.TokenFlowKVPolicy(),
	},
	{
		name: "burst-preempt-16",
		gen: func(seed int64, scale float64) trace.Workload {
			// A quarter of the 1,800 s BurstGPT trace the scenario is cut
			// from, at the same base rate and crowd size, with a crowd
			// every 150 s instead of every 450 s so three land inside it.
			dur := 450 * scale
			return trace.BurstGPT("burst-preempt-16", trace.BurstGPTConfig{
				Duration:   simclock.FromSeconds(dur),
				BaseRate:   12,
				GammaShape: 0.35,
				SpikeEvery: simclock.FromSeconds(dur / 3),
				SpikeSize:  240,
				Lengths: trace.NormalLengths{
					PromptMean: 512, PromptStd: 128,
					OutputMean: 1024, OutputStd: 256,
					Min: 16, Max: 4096,
				},
				Rates: trace.MixtureRate{Rates: []float64{15, 20, 30}, Weights: []float64{0.4, 0.4, 0.2}},
				Seed:  seed,
			})
		},
		config: func(float64) (cluster.Config, error) {
			return staticConfig(16, 1, router.NameLeastQueue)
		},
		kv: engine.TokenFlowKVPolicy(),
	},
	{
		name: "docs-chaos-64",
		gen: func(seed int64, scale float64) trace.Workload {
			return trace.Sessions("docs-chaos-64", trace.SessionConfig{
				Sessions:        scaledCount(2400, scale),
				Duration:        docsWindow(scale),
				SpikeEvery:      simclock.FromSeconds(300),
				FirstPromptMean: 6000, FirstPromptStd: 1000,
				MinTurns: 4, MaxTurns: 10,
				Rates: trace.FixedRate(20),
				Seed:  seed,
			})
		},
		config: docsConfig,
		kv:     engine.KVPolicy{Offload: true, WriteThrough: true, ChunkedWriting: true, LoadEvictOverlap: true, PriorityWrites: true, HostCache: true},
	},
}

// workloadByName resolves a -workload argument.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scaledCount applies scale to a session count, with a floor of one.
func scaledCount(n int, scale float64) int {
	return int(math.Max(1, math.Round(float64(n)*scale)))
}

// chatSessions is the scale scenario's generator (the BENCH_core.json
// shape): short chat sessions of 3-8 turns with light token shapes and
// instant consumers, so the run stresses event throughput rather than
// buffer stalls. The ROADMAP scenario is 182,000 sessions over 600 s.
func chatSessions(name string, seed int64, sessions int, windowSeconds float64) trace.Workload {
	return trace.Sessions(name, trace.SessionConfig{
		Sessions:        sessions,
		Duration:        simclock.FromSeconds(windowSeconds),
		FirstPromptMean: 128, FirstPromptStd: 32,
		FollowupMean: 32, FollowupStd: 8,
		OutputMean: 32, OutputStd: 8,
		MinLen: 16, MaxLen: 512,
		Rates: trace.FixedRate(0),
		Seed:  seed,
	})
}

// staticConfig is a fixed pool routed by the named policy.
func staticConfig(replicas, shards int, policy string) (cluster.Config, error) {
	pol, err := router.ByName(policy)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Replicas:   replicas,
		Policy:     pol,
		Shards:     shards,
		MaxSimTime: 4 * time.Hour,
	}, nil
}

// docsWindow is the long-document arrival window: 1,800 s at scale 1,
// flash crowds every 300 s inside it.
func docsWindow(scale float64) simclock.Time { return simclock.FromSeconds(1800 * scale) }

// docsConfig is the read-heavy scenario: 64 replicas autoscaled 32..64 by
// the SLO-target controller with a 4 s warm-up and pre-warm, indexed
// session affinity on the synchronous index, cost-gated migration over a
// 2 GB/s shared-NIC interconnect, K=2 pin redundancy, and one scripted
// crash of replica 1 two seconds after the flash crowd at mid-window, and
// streaming latency attribution on.
func docsConfig(scale float64) (cluster.Config, error) {
	pol, err := router.ByName(router.NameIndexedSessionAffinity)
	if err != nil {
		return cluster.Config{}, err
	}
	scaler, err := autoscale.ByName(autoscale.NameSLOTarget)
	if err != nil {
		return cluster.Config{}, err
	}
	crashAt := docsWindow(scale)/2 + simclock.FromSeconds(2)
	return cluster.Config{
		Replicas:        64,
		Policy:          pol,
		Shards:          1,
		MaxSimTime:      4 * time.Hour,
		Migrate:         true,
		MigrationPolicy: cluster.MigrateCost,
		Topology:        &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 2},
		Autoscale: &cluster.AutoscaleConfig{
			Policy:  scaler,
			Min:     32,
			Max:     64,
			Warmup:  4 * time.Second,
			Prewarm: true,
		},
		Chaos: &chaos.Spec{
			Faults:     []chaos.Fault{{Kind: chaos.Crash, At: crashAt, Replica: 1}},
			Redundancy: 2,
		},
		Obs: obs.Options{Attribution: true},
	}, nil
}
