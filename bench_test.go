// Package repro's root benchmarks are hand-written cluster and scheduler
// micro-benchmarks. Their sizes scale with TOKENFLOW_SCALE (unset = 1.0,
// paper scale; a value that is not a finite number above zero fails the
// benchmark). The experiments themselves run from the command line:
//
//	go test -run=NONE -bench=. -benchmem
//	go run ./cmd/tokenflow-bench fig16   # print one regenerated table
package repro

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/tokenflow"
)

// benchScale sets experiments.Scale from TOKENFLOW_SCALE and returns it,
// failing the benchmark on a bad value.
func benchScale(b *testing.B) float64 {
	b.Helper()
	s, err := experiments.ScaleFromEnv()
	if err != nil {
		b.Fatal(err)
	}
	experiments.Scale = s
	return s
}

// BenchmarkRandomSpecInvariants drives seeded random cluster scenarios
// (autoscale × topology × migration × gateway space) through the
// cross-subsystem invariant checker. One iteration runs a handful of
// scenarios, so the CI bench smoke step exercises random specs — and the
// conservation laws — on every push.
func BenchmarkRandomSpecInvariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 6; seed++ {
			sc := cluster.RandomScenario(rand.New(rand.NewSource(1000 + seed)))
			cl, err := cluster.New(sc.Config, sc.Build)
			if err != nil {
				b.Fatalf("seed %d: %v", seed, err)
			}
			res, err := cl.Run(sc.Workload)
			if err != nil {
				b.Fatalf("seed %d: %v", seed, err)
			}
			if res.TimedOut {
				b.Fatalf("seed %d: timed out", seed)
			}
			if err := cluster.CheckInvariants(res, sc.Workload.Len()); err != nil {
				b.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// BenchmarkAutoscaledSpikes measures one full autoscaled cluster run
// (1..4 replicas, queue-pressure policy, KV pre-warming) on the multi-turn
// spike workload — the autoscaler subsystem's wall-clock cost per
// simulated run.
func BenchmarkAutoscaledSpikes(b *testing.B) {
	s := benchScale(b)
	sessions := int(300 * s)
	if sessions < 1 {
		sessions = 1
	}
	w := tokenflow.SessionSpikesWorkload(sessions, 240*s, 60*s, 20, 7)
	for i := 0; i < b.N; i++ {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas: 4,
			Router:   tokenflow.RouterSessionAffinity,
			Autoscale: &tokenflow.AutoscaleSpec{
				MinReplicas: 1,
				Warmup:      5 * time.Second, Prewarm: true,
			},
		}, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cluster.Finished == 0 {
			b.Fatal("no requests finished")
		}
	}
}

// BenchmarkCluster4xLeastQueue measures one full 4-replica cluster
// simulation under least-queue routing on the multi-turn spike workload —
// the cluster subsystem's wall-clock cost per simulated run. Sessions,
// duration, and spike period scale together so the load regime (arrival
// rate) stays constant across TOKENFLOW_SCALE values.
func BenchmarkCluster4xLeastQueue(b *testing.B) {
	s := benchScale(b)
	sessions := int(300 * s)
	if sessions < 1 {
		sessions = 1
	}
	w := tokenflow.SessionSpikesWorkload(sessions, 240*s, 60*s, 20, 7)
	for i := 0; i < b.N; i++ {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas: 4,
			Router:   tokenflow.RouterLeastQueue,
		}, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cluster.Finished == 0 {
			b.Fatal("no requests finished")
		}
	}
}

// benchHetero measures one full heterogeneous cluster run (1×H200 +
// 2×RTX-4090) under session-affinity routing on the multi-turn spike
// workload, with cross-replica KV migration on or off — the
// unified-residency subsystem's wall-clock cost and the perf datapoint
// pair for the migration-vs-recompute tradeoff.
func benchHetero(b *testing.B, migrate bool) {
	b.Helper()
	s := benchScale(b)
	sessions := int(300 * s)
	if sessions < 1 {
		sessions = 1
	}
	w := tokenflow.SessionSpikesWorkload(sessions, 240*s, 60*s, 20, 7)
	for i := 0; i < b.N; i++ {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config: tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			ReplicaSpecs: []tokenflow.ReplicaSpec{
				{GPU: "H200", MemFraction: 0.3, Count: 1},
				{GPU: "RTX-4090", MemFraction: 0.9, Count: 2},
			},
			Router:  tokenflow.RouterSessionAffinity,
			Migrate: migrate,
		}, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cluster.Finished == 0 {
			b.Fatal("no requests finished")
		}
		if res.PinnedPrefixPages == 0 {
			b.Fatal("prefix residency should charge the pools")
		}
	}
}

func BenchmarkCluster4xHeteroMigrate(b *testing.B)   { benchHetero(b, true) }
func BenchmarkCluster4xHeteroNoMigrate(b *testing.B) { benchHetero(b, false) }

// The §7.6 overhead analysis as direct testing.B microbenchmarks: the
// wall-clock cost of one scheduling decision on a stressed view (the
// paper reports ~0.07 ms for SGLang and ~0.4 ms for TokenFlow).

func stressedView(b *testing.B) *sched.View {
	b.Helper()
	cost, err := gpu.NewCostModel(gpu.H200, model.Llama3_8B)
	if err != nil {
		b.Fatal(err)
	}
	v := &sched.View{
		Now: simclock.FromSeconds(100), FreeTokens: 50_000, TotalTokens: 200_000,
		Cost: cost, AvgIterTime: 20 * time.Millisecond,
	}
	clock := simclock.New()
	for i := 0; i < 128; i++ {
		r := request.New(i, 0, 512, 2048, 20)
		r.State = request.StateRunning
		r.PrefilledTokens = 512
		r.DeliverTokens(clock, 0, 40+i)
		r.CancelConsumption(clock)
		v.Running = append(v.Running, r)
	}
	for i := 0; i < 64; i++ {
		v.Waiting = append(v.Waiting, request.New(1000+i, simclock.FromSeconds(99), 512, 2048, 20))
	}
	return v
}

func BenchmarkOverheadSchedulerSGLang(b *testing.B) {
	v := stressedView(b)
	s := sched.NewSGLang()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Decide(v)
	}
}

func BenchmarkOverheadSchedulerAndes(b *testing.B) {
	v := stressedView(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh scheduler has not decided yet, so every call is a full
		// quantum decision.
		_ = sched.NewAndes().Decide(v)
	}
}

func BenchmarkOverheadSchedulerTokenFlow(b *testing.B) {
	v := stressedView(b)
	s := core.MustNew(core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ForceFullPass()
		_ = s.Decide(v)
	}
}
