package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/trace"
)

// clusterWorkload is the multi-turn spike trace of the cluster study:
// chat sessions with growing shared prefixes, half of them opening in
// periodic flash crowds — the request-burst regime of the paper carried
// to a horizontally scaled deployment.
func clusterWorkload() trace.Workload {
	return trace.Sessions("cluster-sessions", trace.SessionConfig{
		Sessions:   scaled(300),
		Duration:   scaledDur(240),
		SpikeEvery: scaledDur(60),
		Rates:      trace.FixedRate(20),
		Seed:       7,
	})
}

// ExpCluster studies horizontal scaling: QoS and P99 TTFT versus replica
// count × routing policy for TokenFlow replicas serving the multi-turn
// spike workload. Session-affinity routing preserves prefix-cache reuse
// that round-robin destroys, which shows up as lower tail TTFT once the
// cluster is load-stressed.
func ExpCluster() (*Table, error) {
	dep := dep4090Llama
	w := clusterWorkload()
	replicaCounts := []int{1, 2, 4}

	type cell struct {
		replicas int
		policy   string
	}
	var cells []cell
	for _, n := range replicaCounts {
		for _, p := range router.Names() {
			cells = append(cells, cell{replicas: n, policy: p})
		}
	}
	results, err := runCells(len(cells), func(i int) (*cluster.Result, error) {
		c := cells[i]
		pol, err := router.ByName(c.policy)
		var res *cluster.Result
		if err == nil {
			res, err = runCluster(cluster.Config{Replicas: c.replicas, Policy: pol},
				cluster.Engines([]cluster.Deployment{dep}, tokenFlow.Make), w)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster %dx %s: %w", c.replicas, c.policy, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Cluster",
		Title: "Multi-replica scaling: routing policy × replica count, TokenFlow replicas, multi-turn spikes",
		Header: []string{"replicas", "router", "QoS", "P99-TTFT", "mean-TTFT",
			"eff-thpt(tok/s)", "imbalance", "prefix-hits"},
	}
	for i, c := range cells {
		res := results[i]
		t.Rows = append(t.Rows, []string{
			fint(int64(c.replicas)),
			c.policy,
			ftps(res.Report.QoS),
			fsec(res.Report.P99TTFT),
			fsec(res.Report.MeanTTFT),
			ftps(res.Report.EffectiveThroughput),
			ffloat(res.Imbalance, 2),
			fint(res.PrefixHits),
		})
	}
	t.Notes = "Expected shape: P99 TTFT falls with replica count; at fixed count, session-affinity " +
		"beats round-robin on tail TTFT by preserving per-replica prefix-cache reuse."
	return t, nil
}
