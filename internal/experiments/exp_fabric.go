package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/router"
)

// ExpFabric studies the unified transfer fabric: tail TTFT and KV-movement
// outcomes versus interconnect layout × NIC bandwidth × migration policy,
// on the imbalanced hetero pool (1×H200 + 3×RTX-4090, tight memory) under
// the multi-turn spike workload, with the host-tier prefix cache enabled.
// The sweep's question: when does shipping KV stop paying? (Answer shape:
// on a fat mesh, always-migrate and the cost model agree — the wire wins.
// As the shared NIC narrows, queued transfers trail recompute; the cost
// model starts declining them and holds its tail, while always-migrate
// drags every diverted turn behind a saturated uplink.)
func ExpFabric() (*Table, error) {
	mix := heteroMixes()[2] // H200+3x4090: affinity diverts under pressure
	w := clusterWorkload()

	type variant struct {
		topo   fabric.Kind
		nic    float64
		policy cluster.MigrationPolicy
	}
	var variants []variant
	for _, policy := range cluster.MigrationPolicies() {
		variants = append(variants, variant{fabric.FullMesh, 25, policy})
		for _, nic := range []float64{25, 1, 0.05} {
			variants = append(variants, variant{fabric.SharedNIC, nic, policy})
		}
	}

	kv := engine.TokenFlowKVPolicy()
	kv.HostCache = true
	build := cluster.Engines(mix.deps, tokenFlow.withKV(kv).Make)
	results, err := runCells(len(variants), func(i int) (*cluster.Result, error) {
		v := variants[i]
		res, err := runCluster(cluster.Config{
			Replicas:        len(mix.deps),
			Policy:          router.NewSessionAffinity(),
			Migrate:         true,
			MigrationPolicy: v.policy,
			Topology:        &fabric.Spec{Kind: v.topo, LinkGBps: v.nic},
		}, build, w)
		if err != nil {
			return nil, fmt.Errorf("fabric %+v: %w", v, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "Fabric",
		Title: "Unified transfer fabric: topology × NIC bandwidth × migration policy, " +
			"1×H200 + 3×RTX-4090, host-tier prefix cache on, multi-turn spikes",
		Header: []string{"topology", "NIC-GB/s", "policy", "P99-TTFT", "mean-TTFT", "QoS",
			"migr", "declined", "reloads", "reload-fb", "wire-busy-s"},
	}
	for i, v := range variants {
		res := results[i]
		var wireBusy float64
		for _, cs := range res.TransferClasses {
			switch cs.Class {
			case fabric.ClassMigrate, fabric.ClassPrewarm, fabric.ClassDrain:
				wireBusy += cs.Busy.Seconds()
			}
		}
		t.Rows = append(t.Rows, []string{
			string(v.topo),
			ffloat(v.nic, 2),
			string(v.policy),
			fsec(res.Report.P99TTFT),
			fsec(res.Report.MeanTTFT),
			ftps(res.Report.QoS),
			fint(res.Migrations),
			fint(res.MigrationsDeclined),
			fint(res.HostReloads),
			fint(res.HostReloadFallbacks),
			ffloat(wireBusy, 2),
		})
	}
	t.Notes = "Expected shape: full mesh and fat shared NICs migrate freely (cost ≈ always); " +
		"as the NIC narrows, always-migrate queues diverted turns behind the uplink while " +
		"the cost model declines the wire and recomputes, holding P99. Host reloads ride " +
		"the same ledger (reload class) and fall back when their link is starved."
	return t, nil
}
