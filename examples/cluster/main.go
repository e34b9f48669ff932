// Cluster: horizontally scaling a chat deployment. A multi-turn session
// workload with periodic flash crowds is served by 4 TokenFlow replicas
// under each routing policy; the router that keeps sessions on the
// replica holding their prefix KV wins the tail latency race. A second
// pass runs an imbalanced heterogeneous pool (1×H200 + 2×RTX-4090) and
// toggles cross-replica KV migration: when routing diverts a session off
// its pin holder, shipping the pinned prefix over the interconnect keeps
// the reuse chain alive instead of recomputing it — more prefix hits,
// lower mean TTFT.
//
// A third pass is the "when migration loses" walkthrough: the same
// hetero pool on a starved shared-NIC topology (every transfer out of a
// replica crosses its one uplink), with the host-tier prefix cache on.
// Always-migrate queues diverted turns behind the saturated NIC; the
// cost model prices each transfer against recomputing the prefix on the
// target, declines the ones the wire would lose, and holds the tail.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"repro/tokenflow"
)

func main() {
	// 300 conversations over 4 minutes; half of them open in flash crowds
	// every 60s. Each turn's prompt extends the previous turn's context.
	w := tokenflow.SessionSpikesWorkload(300, 240, 60, 20, 7)

	cfg := tokenflow.Config{
		System: tokenflow.SystemTokenFlow,
		GPU:    "RTX-4090",
		Model:  "Llama3-8B",
	}

	fmt.Printf("%-18s %10s %10s %10s %12s %6s\n",
		"router", "p99-TTFT", "mean-TTFT", "QoS", "prefix-hits", "imbal")
	for _, pol := range tokenflow.RouterPolicies() {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config:   cfg,
			Replicas: 4,
			Router:   pol,
		}, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %9.2fs %9.2fs %10.1f %12d %5.2fx\n",
			pol,
			res.Cluster.P99TTFT.Seconds(),
			res.Cluster.MeanTTFT.Seconds(),
			res.Cluster.QoS,
			res.PrefixHits,
			res.Imbalance)
	}

	// Heterogeneous pool, affinity routing, migration on vs off. Prefix
	// residency is charged to the pools (pinned pages > 0), and when an
	// overloaded pin holder forces a diversion, migration ships the
	// session's pinned KV to the new replica instead of recomputing it.
	fmt.Printf("\n1×H200 + 2×RTX-4090, session-affinity:\n")
	fmt.Printf("%-12s %10s %12s %12s %12s\n",
		"migration", "mean-TTFT", "prefix-hits", "pinned-pages", "migrations")
	for _, migrate := range []bool{false, true} {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config: cfg,
			ReplicaSpecs: []tokenflow.ReplicaSpec{
				{GPU: "H200", MemFraction: 0.3, Count: 1},
				{GPU: "RTX-4090", MemFraction: 0.9, Count: 2},
			},
			Router:  tokenflow.RouterSessionAffinity,
			Migrate: migrate,
		}, w)
		if err != nil {
			log.Fatal(err)
		}
		name := "off"
		if migrate {
			name = "on"
		}
		fmt.Printf("%-12s %9.3fs %12d %12d %12d\n",
			name,
			res.Cluster.MeanTTFT.Seconds(),
			res.PrefixHits,
			res.PinnedPrefixPages,
			res.Migrations)
	}

	// When migration loses: the same pool behind one starved 0.05 GB/s NIC
	// per replica. Shipping a pinned prefix now costs ~seconds of queued
	// wire versus ~0.1s of recompute, so always-migrate drags every
	// diverted turn through the bottleneck while the cost model declines
	// and recomputes. The host-tier prefix cache rides along: evicted pins
	// reload over host PCIe whenever that link (measured, not assumed)
	// beats recompute.
	hostCfg := cfg
	hostCfg.HostPrefixCache = true
	fmt.Printf("\nsame pool, shared 0.05 GB/s NICs (when migration loses):\n")
	fmt.Printf("%-12s %10s %10s %12s %12s %12s\n",
		"policy", "p99-TTFT", "mean-TTFT", "migrations", "declined", "host-reloads")
	for _, policy := range tokenflow.MigrationPolicies() {
		res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
			Config: hostCfg,
			ReplicaSpecs: []tokenflow.ReplicaSpec{
				{GPU: "H200", MemFraction: 0.3, Count: 1},
				{GPU: "RTX-4090", MemFraction: 0.9, Count: 2},
			},
			Router:          tokenflow.RouterSessionAffinity,
			Migrate:         true,
			MigrationPolicy: policy,
			Topology: &tokenflow.TopologySpec{
				Kind:     tokenflow.TopologySharedNIC,
				LinkGBps: 0.05,
			},
		}, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %9.2fs %9.3fs %12d %12d %12d\n",
			policy,
			res.Cluster.P99TTFT.Seconds(),
			res.Cluster.MeanTTFT.Seconds(),
			res.Migrations,
			res.MigrationsDeclined,
			res.HostReloads)
		if policy == tokenflow.MigrateCost {
			fmt.Printf("  transfer ledger:")
			for _, cs := range res.Transfers {
				if cs.Transfers > 0 {
					fmt.Printf(" %s=%0.1fMB", cs.Class.String(), float64(cs.Bytes)/1e6)
				}
			}
			fmt.Println()
		}
	}
}
