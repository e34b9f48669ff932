package tokenflow_test

import (
	"reflect"
	"testing"
	"time"

	"repro/tokenflow"
)

// TestTopologyFullMeshMatchesDefault: the public equivalence anchor — an
// explicit full-mesh TopologySpec with dedicated per-pair links at the
// default bandwidth reproduces the nil-topology results exactly, for a
// migrating hetero cluster and for an autoscaled pre-warming one.
func TestTopologyFullMeshMatchesDefault(t *testing.T) {
	w := tokenflow.SessionWorkload(24, 90, 20, 7)
	base := tokenflow.ClusterConfig{
		Config: tokenflow.Config{System: tokenflow.SystemTokenFlow, Model: "Llama3-8B"},
		ReplicaSpecs: []tokenflow.ReplicaSpec{
			{GPU: "H200", MemFraction: 0.3, Count: 1},
			{GPU: "RTX-4090", MemFraction: 0.9, Count: 2},
		},
		Router:  tokenflow.RouterSessionAffinity,
		Migrate: true,
	}
	run := func(cfg tokenflow.ClusterConfig) *tokenflow.ClusterResult {
		res, err := tokenflow.RunCluster(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(base)
	withTopo := base
	withTopo.Topology = &tokenflow.TopologySpec{Kind: tokenflow.TopologyFullMesh, LinkGBps: 25}
	mesh := run(withTopo)
	if !reflect.DeepEqual(def.Cluster, mesh.Cluster) {
		t.Error("explicit full-mesh topology diverges from the default cluster result")
	}
	if def.Migrations != mesh.Migrations || def.MigratedTokens != mesh.MigratedTokens {
		t.Errorf("migrations differ: %d/%d vs %d/%d",
			def.Migrations, def.MigratedTokens, mesh.Migrations, mesh.MigratedTokens)
	}

	scaled := tokenflow.ClusterConfig{
		Config:   tokenflow.Config{System: tokenflow.SystemTokenFlow, GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas: 3,
		Router:   tokenflow.RouterSessionAffinity,
		Autoscale: &tokenflow.AutoscaleSpec{
			Policy: tokenflow.AutoscaleQueuePressure, MinReplicas: 1,
			Warmup: 2 * time.Second, Prewarm: true,
		},
	}
	sdef := run(scaled)
	scaledTopo := scaled
	scaledTopo.Topology = &tokenflow.TopologySpec{Kind: tokenflow.TopologyFullMesh, LinkGBps: 25}
	smesh := run(scaledTopo)
	if !reflect.DeepEqual(sdef.Cluster, smesh.Cluster) {
		t.Error("autoscaled full-mesh topology diverges from the default result")
	}
	if sdef.Prewarms != smesh.Prewarms || sdef.GPUSeconds != smesh.GPUSeconds {
		t.Errorf("autoscale outcomes differ: %d/%.1f vs %d/%.1f",
			sdef.Prewarms, sdef.GPUSeconds, smesh.Prewarms, smesh.GPUSeconds)
	}
}

// TestCostMigrationWinsOnNarrowSharedNIC is the public acceptance claim for
// cost-modelled migration: on a starved shared-NIC topology, the cost
// policy declines migrations that always-migrate ships, and ends with
// strictly better P99 TTFT on the same workload and topology.
func TestCostMigrationWinsOnNarrowSharedNIC(t *testing.T) {
	w := displacementWorkload(48, 32)
	specs := []tokenflow.ReplicaSpec{
		{GPU: "H200", MemFraction: 0.3, Count: 1},
		{GPU: "RTX-4090", MemFraction: 0.9, Count: 2},
	}
	run := func(policy tokenflow.MigrationPolicy) *tokenflow.ClusterResult {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:          tokenflow.Config{System: tokenflow.SystemTokenFlow, Model: "Llama3-8B"},
			ReplicaSpecs:    specs,
			Router:          tokenflow.RouterSessionAffinity,
			Migrate:         true,
			MigrationPolicy: policy,
			Topology:        &tokenflow.TopologySpec{Kind: tokenflow.TopologySharedNIC, LinkGBps: 0.05},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cluster.TimedOut {
			t.Fatal("run timed out")
		}
		return res
	}
	always := run(tokenflow.MigrateAlways)
	cost := run(tokenflow.MigrateCost)

	if always.Migrations == 0 {
		t.Fatal("always-migrate shipped nothing; the scenario is vacuous")
	}
	if cost.MigrationsDeclined == 0 {
		t.Error("cost model declined nothing on a starved NIC")
	}
	if cost.Migrations >= always.Migrations {
		t.Errorf("cost model shipped %d migrations, always %d; it should ship fewer",
			cost.Migrations, always.Migrations)
	}
	if cost.Cluster.P99TTFT >= always.Cluster.P99TTFT {
		t.Errorf("cost policy P99 TTFT %v should beat always-migrate %v on the narrow NIC",
			cost.Cluster.P99TTFT, always.Cluster.P99TTFT)
	}
}

// TestHostPrefixCacheCluster: the host-tier cache works through the public
// cluster API and its accounting surfaces in the result.
func TestHostPrefixCacheCluster(t *testing.T) {
	var w tokenflow.Workload
	for s := 1; s <= 24; s++ {
		w = append(w, tokenflow.Request{Arrival: at(0.5 * float64(s)),
			PromptLen: 2000, OutputLen: 128, Rate: 20, Session: s, Turn: 1})
	}
	for s := 1; s <= 24; s++ {
		w = append(w, tokenflow.Request{Arrival: at(80 + 0.5*float64(s)),
			PromptLen: 2528, OutputLen: 128, Rate: 20, Session: s, Turn: 2})
	}
	res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config: tokenflow.Config{
			System: tokenflow.SystemTokenFlow, GPU: "RTX-4090", Model: "Llama3-8B",
			HostPrefixCache: true,
		},
		Replicas: 1,
		Router:   tokenflow.RouterRoundRobin,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostReloads == 0 || res.HostReloadTokens == 0 {
		t.Errorf("host cache idle: %d reloads / %d tokens", res.HostReloads, res.HostReloadTokens)
	}
	if res.Replicas[0].KV.HostReloads != res.HostReloads {
		t.Errorf("per-replica reloads %d != cluster %d", res.Replicas[0].KV.HostReloads, res.HostReloads)
	}
	classes := map[string]tokenflow.TransferClassStats{}
	for _, cs := range res.Transfers {
		classes[cs.Class.String()] = cs
	}
	if classes["reload"].Bytes == 0 {
		t.Errorf("reload class empty in transfer ledger: %+v", res.Transfers)
	}
	if classes["sync"].Bytes == 0 {
		t.Errorf("sync class empty in transfer ledger: %+v", res.Transfers)
	}

	if _, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:   tokenflow.Config{Model: "Llama3-8B"},
		Topology: &tokenflow.TopologySpec{Kind: "torus"},
	}, w); err == nil {
		t.Error("unknown topology kind should fail")
	}
	if _, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config:          tokenflow.Config{Model: "Llama3-8B"},
		MigrationPolicy: "sometimes",
	}, w); err == nil {
		t.Error("unknown migration policy should fail")
	}
}
