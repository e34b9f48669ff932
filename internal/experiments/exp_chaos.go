package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// chaosCrashAt is the scripted crash instant: two seconds after the
// trace's flash crowd opens, when the victim holds hot pins and a full
// batch of in-flight spike turns.
func chaosCrashAt() simclock.Time { return simclock.FromSeconds(62) }

// chaosWorkload is the long-document regime where losing a replica's
// pins actually hurts: few sessions, each opening with a ~6k-token
// document and growing over 4–10 turns, so by the crash instant every
// hot session carries a prefix that is expensive to recompute. Sizes
// are deliberately fixed (not Scale-adjusted): the cells are calibrated
// so the 4-replica pool has headroom — the post-crash tail then measures
// prefix-recompute damage, not raw capacity loss, which is exactly the
// component pin redundancy can buy back.
func chaosWorkload() trace.Workload {
	return trace.Sessions("chaos-sessions", trace.SessionConfig{
		Sessions:        20,
		Duration:        simclock.FromSeconds(120),
		SpikeEvery:      simclock.FromSeconds(60),
		FirstPromptMean: 6000, FirstPromptStd: 1000,
		MinTurns: 4, MaxTurns: 10,
		Rates: trace.FixedRate(20),
		Seed:  7,
	})
}

// chaosCrashSpec scripts a single mid-spike crash of replica 1.
func chaosCrashSpec(redundancy int) *chaos.Spec {
	return &chaos.Spec{
		Faults: []chaos.Fault{
			{Kind: chaos.Crash, At: chaosCrashAt(), Replica: 1},
		},
		Redundancy: redundancy,
	}
}

// ChaosCells holds the three chaos-study runs.
type ChaosCells struct {
	Baseline  *cluster.Result // no fault injected
	Crash     *cluster.Result // mid-spike crash, no redundancy
	Redundant *cluster.Result // same crash, 2-way pin redundancy
	CrashAt   simclock.Time
}

// PostCrashP99 reports the P99 TTFT over requests arriving at or after
// the crash instant — the recovery window the fault actually damages.
func (c *ChaosCells) PostCrashP99(res *cluster.Result) time.Duration {
	var ttfts []time.Duration
	for _, r := range res.Requests {
		if r.Arrival >= c.CrashAt && r.FirstTokenAt > 0 {
			ttfts = append(ttfts, r.TTFT())
		}
	}
	sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
	return metrics.Percentile(ttfts, 0.99)
}

// RunChaosCells runs the three cells concurrently on identical
// 4-replica session-affinity clusters with the host-tier prefix cache
// enabled (mirrors are host-side, so redundancy needs it).
func RunChaosCells() (*ChaosCells, error) {
	kv := engine.TokenFlowKVPolicy()
	kv.HostCache = true
	w := chaosWorkload()

	build := cluster.Engines([]cluster.Deployment{dep4090Llama}, tokenFlow.withKV(kv).Make)
	specs := []*chaos.Spec{nil, chaosCrashSpec(0), chaosCrashSpec(2)}
	results, err := runCells(len(specs), func(i int) (*cluster.Result, error) {
		res, err := runCluster(cluster.Config{
			Replicas: 4,
			Policy:   router.NewSessionAffinity(),
			Chaos:    specs[i],
		}, build, w)
		if err != nil {
			return nil, fmt.Errorf("chaos cell %d: %w", i, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosCells{
		Baseline:  results[0],
		Crash:     results[1],
		Redundant: results[2],
		CrashAt:   chaosCrashAt(),
	}, nil
}

// ExpChaos studies fault injection and recovery: the P99-TTFT damage of
// a mid-spike replica crash, and how much of it pin redundancy buys
// back. Three cells on the same cluster: fault-free baseline; the
// scripted crash with no redundancy (orphans re-route and recompute
// their session prefixes from scratch); the same crash with 2-way pin
// redundancy, where a background replication loop keeps a host mirror
// of every hot pin on a peer — survivors repin from the mirror instead
// of recomputing, and the prefix-aware retry path steers orphans to the
// mirror holder. The cost shows up as replicate-class wire bytes.
func ExpChaos() (*Table, error) {
	cells, err := RunChaosCells()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "Chaos",
		Title: "Mid-spike replica crash: recovery damage vs. pin-redundancy cost, " +
			"4 replicas, session affinity, long-document sessions, host-tier prefix cache on",
		Header: []string{"variant", "post-crash-P99", "P99-TTFT", "mean-TTFT",
			"retries", "failed", "backfills", "repl+repins", "repl-GB"},
	}
	for _, row := range []struct {
		name string
		res  *cluster.Result
	}{
		{"no-fault", cells.Baseline},
		{"crash", cells.Crash},
		{"crash+K=2", cells.Redundant},
	} {
		t.Rows = append(t.Rows, []string{
			row.name,
			fsec(cells.PostCrashP99(row.res)),
			fsec(row.res.Report.P99TTFT),
			fsec(row.res.Report.MeanTTFT),
			fint(row.res.Retries),
			fint(row.res.RetryFailures),
			fint(row.res.Backfills),
			fint(row.res.Replications),
			ffloat(float64(row.res.ReplicatedBytes)/1e9, 1),
		})
	}
	t.Notes = "Expected shape: the crash drags post-crash P99 TTFT well above baseline — " +
		"orphaned spike turns re-queue on survivors and recompute the victim's long " +
		"prefixes. With K=2 redundancy the survivors repin from host mirrors and retries " +
		"land where the mirror lives, pulling tail damage back toward baseline at the " +
		"price of steady replicate-class wire traffic."
	return t, nil
}
