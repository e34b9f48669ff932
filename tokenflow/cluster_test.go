package tokenflow_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/tokenflow"
)

// TestRunClusterSingleReplicaMatchesRun is the cluster subsystem's anchor:
// one replica behind round-robin routing must reproduce the single-device
// Run byte for byte — same report, same per-request stats, same samples.
func TestRunClusterSingleReplicaMatchesRun(t *testing.T) {
	workloads := map[string]tokenflow.Workload{
		"burst":    tokenflow.BurstWorkload(48, 512, 1024, 20, 42),
		"sessions": tokenflow.SessionWorkload(16, 60, 20, 42),
	}
	for name, w := range workloads {
		name, w := name, w
		t.Run(name, func(t *testing.T) {
			cfg := tokenflow.Config{
				System:      tokenflow.SystemTokenFlow,
				GPU:         "RTX-4090",
				Model:       "Llama3-8B",
				SampleEvery: 5 * time.Second,
			}
			solo, err := tokenflow.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			cres, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
				Config:   cfg,
				Replicas: 1,
				Router:   tokenflow.RouterRoundRobin,
			}, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cres.Cluster, solo) {
				t.Errorf("1-replica cluster result differs from Run:\ncluster: %+v\nsolo:    %+v",
					cres.Cluster, solo)
			}
			if len(cres.Replicas) != 1 || cres.Replicas[0].Routed != len(w) {
				t.Errorf("replica stats %+v, want 1 replica with %d routed", cres.Replicas, len(w))
			}
			if cres.Imbalance != 1 {
				t.Errorf("single-replica imbalance %v, want 1", cres.Imbalance)
			}
		})
	}
}

// TestSessionAffinityBeatsRoundRobin is the cluster experiment's headline
// claim: on a 4-replica cluster serving a multi-turn spike workload,
// prefix-affinity routing beats round-robin on P99 TTFT (deterministic
// simulation, so this is a hard assertion, not a statistical one).
func TestSessionAffinityBeatsRoundRobin(t *testing.T) {
	w := tokenflow.SessionSpikesWorkload(300, 240, 60, 20, 7)
	cfg := tokenflow.Config{
		System: tokenflow.SystemTokenFlow,
		GPU:    "RTX-4090",
		Model:  "Llama3-8B",
	}
	run := func(r tokenflow.RouterPolicy) *tokenflow.ClusterResult {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config: cfg, Replicas: 4, Router: r,
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cluster.TimedOut {
			t.Fatalf("%s run timed out", r)
		}
		return res
	}
	aff := run(tokenflow.RouterSessionAffinity)
	rr := run(tokenflow.RouterRoundRobin)

	if aff.PrefixHits <= rr.PrefixHits {
		t.Errorf("affinity preserved %d prefix hits, round-robin %d; affinity should preserve more",
			aff.PrefixHits, rr.PrefixHits)
	}
	if aff.Cluster.P99TTFT >= rr.Cluster.P99TTFT {
		t.Errorf("session-affinity P99 TTFT %v should beat round-robin %v",
			aff.Cluster.P99TTFT, rr.Cluster.P99TTFT)
	}
}

// at converts a seconds offset to a virtual-clock instant.
func at(s float64) tokenflow.Time { return tokenflow.Time(s * float64(time.Second)) }

// displacementWorkload builds the migration stress scenario: ns sessions
// open early and pin large contexts on the cluster's big replica, then
// flash crowds of nb big stateless prompts flood it at t=60 and t=120,
// with the sessions' follow-up turns arriving right behind each wave.
// The overloaded pin holder forces affinity to divert those turns — the
// exact moment cross-replica KV migration competes with recompute.
func displacementWorkload(ns, nb int) tokenflow.Workload {
	var w tokenflow.Workload
	for s := 1; s <= ns; s++ {
		t0 := 40.0 * float64(s) / float64(ns+1)
		w = append(w, tokenflow.Request{Arrival: at(t0), PromptLen: 1500,
			OutputLen: 400, Rate: 20, Session: s, Turn: 1})
		w = append(w, tokenflow.Request{Arrival: at(62 + float64(s%10)), PromptLen: 1980,
			OutputLen: 400, Rate: 20, Session: s, Turn: 2})
		w = append(w, tokenflow.Request{Arrival: at(122 + float64(s%10)), PromptLen: 2460,
			OutputLen: 400, Rate: 20, Session: s, Turn: 3})
	}
	for i := 0; i < nb; i++ {
		w = append(w, tokenflow.Request{Arrival: at(60), PromptLen: 6000,
			OutputLen: 100, Rate: 20})
		w = append(w, tokenflow.Request{Arrival: at(120), PromptLen: 6000,
			OutputLen: 100, Rate: 20})
	}
	sort.SliceStable(w, func(i, j int) bool { return w[i].Arrival < w[j].Arrival })
	return w
}

// TestMigrationBeatsRecomputeOnHeteroPool is the unified residency model's
// headline claim: on an imbalanced heterogeneous pool under multi-turn
// spikes, affinity routing with cross-replica KV migration beats
// migration-off on tail TTFT — shipping a session's pinned prefix over the
// interconnect is cheaper than recomputing it on the fallback replica, and
// it keeps the session's reuse chain alive — while the prefix cache
// visibly charges the page pools.
func TestMigrationBeatsRecomputeOnHeteroPool(t *testing.T) {
	w := displacementWorkload(64, 40)
	specs := []tokenflow.ReplicaSpec{
		// One compute-rich big replica (where the sessions pin) and two
		// compute-poor small ones (where recomputing a displaced prefix
		// is expensive).
		{GPU: "H200", MemFraction: 0.3, Count: 1},
		{GPU: "RTX-4090", MemFraction: 0.9, Count: 2},
	}
	run := func(migrate bool) *tokenflow.ClusterResult {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:       tokenflow.Config{System: tokenflow.SystemTokenFlow, Model: "Llama3-8B"},
			ReplicaSpecs: specs,
			Router:       tokenflow.RouterSessionAffinity,
			Migrate:      migrate,
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cluster.TimedOut {
			t.Fatal("run timed out")
		}
		if res.Cluster.Finished != res.Cluster.N {
			t.Fatalf("finished %d/%d", res.Cluster.Finished, res.Cluster.N)
		}
		return res
	}
	with := run(true)
	without := run(false)

	if with.Migrations == 0 {
		t.Fatal("the displaced turns should trigger migrations")
	}
	// Prefix residency is charged to the pools, not conjured for free.
	if with.PinnedPrefixPages == 0 || without.PinnedPrefixPages == 0 {
		t.Errorf("pinned prefix pages: with=%d without=%d, want > 0",
			with.PinnedPrefixPages, without.PinnedPrefixPages)
	}
	// Migration keeps displaced sessions' reuse chains alive...
	if with.PrefixHits <= without.PrefixHits {
		t.Errorf("migration preserved %d prefix hits, recompute %d; migration should preserve more",
			with.PrefixHits, without.PrefixHits)
	}
	// ...and that shows up as lower tail and mean TTFT.
	if with.Cluster.P99TTFT >= without.Cluster.P99TTFT {
		t.Errorf("migration P99 TTFT %v should beat recompute %v",
			with.Cluster.P99TTFT, without.Cluster.P99TTFT)
	}
	if with.Cluster.MeanTTFT >= without.Cluster.MeanTTFT {
		t.Errorf("migration mean TTFT %v should beat recompute %v",
			with.Cluster.MeanTTFT, without.Cluster.MeanTTFT)
	}
}

// TestHeteroReplicaSpecsExpand checks layout expansion and per-replica
// reporting of a mixed pool.
func TestHeteroReplicaSpecsExpand(t *testing.T) {
	w := tokenflow.SessionWorkload(12, 60, 20, 3)
	res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config: tokenflow.Config{Model: "Llama3-8B"},
		ReplicaSpecs: []tokenflow.ReplicaSpec{
			{GPU: "H200", Count: 1},
			{GPU: "RTX-4090", Count: 2},
		},
		Router: tokenflow.RouterWeightedCapacity,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 3 {
		t.Fatalf("replicas = %d, want 3", len(res.Replicas))
	}
	wantGPU := []string{"H200", "RTX-4090", "RTX-4090"}
	for i, rr := range res.Replicas {
		if rr.GPU != wantGPU[i] {
			t.Errorf("replica %d GPU = %q, want %q", i, rr.GPU, wantGPU[i])
		}
	}
	if res.Cluster.Finished != res.Cluster.N {
		t.Errorf("finished %d/%d", res.Cluster.Finished, res.Cluster.N)
	}
	if _, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:       tokenflow.Config{Model: "Llama3-8B"},
		ReplicaSpecs: []tokenflow.ReplicaSpec{{GPU: "RTX-4090", Count: -1}},
	}, w); err == nil {
		t.Error("negative spec count should fail")
	}
}

// TestRouterPoliciesAllComplete smoke-tests every policy end to end on a
// small cluster.
func TestRouterPoliciesAllComplete(t *testing.T) {
	w := tokenflow.SessionWorkload(12, 60, 20, 3)
	for _, pol := range tokenflow.RouterPolicies() {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
			Replicas: 2,
			Router:   pol,
		}, w)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Cluster.Finished != res.Cluster.N {
			t.Errorf("%s: %d/%d finished", pol, res.Cluster.Finished, res.Cluster.N)
		}
	}
}

func TestRunClusterErrors(t *testing.T) {
	w := tokenflow.BurstWorkload(4, 128, 128, 20, 1)
	if _, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config: tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Router: "warm-pool",
	}, w); err == nil {
		t.Error("unknown router should fail")
	}
	if _, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: -2,
	}, w); err == nil {
		t.Error("negative replica count should fail")
	}
	if _, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: 2,
		Shards:   -1,
	}, w); err == nil {
		t.Error("negative shard count should fail")
	}
}

// TestRunClusterWorkloadReusable: RunCluster hands the caller's workload
// to the simulator without copying it, so it must only read it — the
// workload is unchanged after two migrating affinity runs, and the runs
// agree exactly.
func TestRunClusterWorkloadReusable(t *testing.T) {
	w := tokenflow.SessionSpikesWorkload(40, 60, 20, 20, 7)
	before := append(tokenflow.Workload(nil), w...)
	cfg := tokenflow.ClusterConfig{
		Config:   tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: 4,
		Router:   tokenflow.RouterSessionAffinity,
		Migrate:  true,
	}
	first, err := tokenflow.RunCluster(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tokenflow.RunCluster(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, before) {
		t.Error("workload modified by RunCluster")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two runs of the same workload produced different results")
	}
	if first.Cluster.Finished != len(w) {
		t.Errorf("finished %d/%d", first.Cluster.Finished, len(w))
	}
}
