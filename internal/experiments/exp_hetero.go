package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
)

// poolMix names a heterogeneous replica layout: one deployment per
// replica, every one serving Llama3-8B.
type poolMix struct {
	name string
	deps []cluster.Deployment
}

// heteroMixes are the studied pools: a homogeneous small baseline, a
// homogeneous big baseline, and the imbalanced mix where capacity
// weighting and migration earn their keep. The small cards run memory-
// tight (0.75 leaves ~15k KV tokens) so prefix residency is contended.
func heteroMixes() []poolMix {
	small := cluster.Deployment{GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.75}
	big := cluster.Deployment{GPU: gpu.H200, Model: model.Llama3_8B, MemFraction: 0.3}
	return []poolMix{
		{"4x4090", []cluster.Deployment{small, small, small, small}},
		{"2xH200", []cluster.Deployment{big, big}},
		{"H200+3x4090", []cluster.Deployment{big, small, small, small}},
	}
}

// ExpHetero studies heterogeneous pools under the unified residency
// model: QoS and tail TTFT versus pool mix × routing policy, with
// cross-replica KV migration toggled for the affinity policy. Expected
// shape: on the imbalanced mix, capacity weighting beats plain
// least-queue-style balancing, and affinity+migration recovers the
// prefix reuse that affinity alone loses when the small replicas
// overflow — with prefix residency (pinned pages, evictions) now honestly
// charged to every pool.
func ExpHetero() (*Table, error) {
	w := clusterWorkload()

	type variant struct {
		policy  string
		migrate bool
	}
	variants := []variant{
		{router.NameRoundRobin, false},
		{router.NameWeightedCapacity, false},
		{router.NameSessionAffinity, false},
		{router.NameSessionAffinity, true},
	}

	type cell struct {
		mix poolMix
		v   variant
	}
	var cells []cell
	for _, mix := range heteroMixes() {
		for _, v := range variants {
			cells = append(cells, cell{mix: mix, v: v})
		}
	}
	results, err := runCells(len(cells), func(i int) (*cluster.Result, error) {
		c := cells[i]
		pol, err := router.ByName(c.v.policy)
		var res *cluster.Result
		if err == nil {
			res, err = runCluster(cluster.Config{
				Replicas: len(c.mix.deps),
				Policy:   pol,
				Migrate:  c.v.migrate,
			}, cluster.Engines(c.mix.deps, tokenFlow.Make), w)
		}
		if err != nil {
			return nil, fmt.Errorf("hetero %s %s: %w", c.mix.name, c.v.policy, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "Hetero",
		Title: "Heterogeneous pools: routing policy × pool mix × KV migration, " +
			"TokenFlow replicas, multi-turn spikes",
		Header: []string{"pool", "router", "migrate", "QoS", "P99-TTFT", "mean-TTFT",
			"imbalance", "prefix-hits", "pin-evict", "peak-pinned", "migrations"},
	}
	for i, c := range cells {
		res := results[i]
		var evict, peak int64
		for _, rs := range res.PerReplica {
			evict += rs.Result.KV.PrefixEvictions
			peak += int64(rs.Result.KV.PeakPinnedPages)
		}
		mig := "off"
		if c.v.migrate {
			mig = "on"
		}
		t.Rows = append(t.Rows, []string{
			c.mix.name,
			c.v.policy,
			mig,
			ftps(res.Report.QoS),
			fsec(res.Report.P99TTFT),
			fsec(res.Report.MeanTTFT),
			ffloat(res.Imbalance, 2),
			fint(res.PrefixHits),
			fint(evict),
			fint(peak),
			fint(res.Migrations),
		})
	}
	t.Notes = "Expected shape: on the imbalanced mix, weighted-capacity beats round-robin on tail TTFT; " +
		"session-affinity with migration beats migration-off by shipping pinned prefixes instead of " +
		"recomputing them. Pinned pages > 0 everywhere: prefix residency is charged to the pools."
	return t, nil
}
