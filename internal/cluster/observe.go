package cluster

// Flight-recorder telemetry series (the registry half of Config.Obs; the
// event half is emitted inline at each lifecycle site). Per-replica series
// sample on the SampleEvery loop; autoscale-signal series sample on the
// control loop, one point per tick.
// Everything here is pure observation: recording reads engine and fabric
// state through the same accessors routing uses and never schedules clock
// events, so an instrumented run's Result is deep-equal to an
// uninstrumented one.

import (
	"strconv"

	"repro/internal/autoscale"
	"repro/internal/gpu"
	"repro/internal/obs/attribution"
	"repro/internal/simclock"
)

// replicaSeriesNames holds one replica's precomputed series names, so
// per-tick recording does no string building.
type replicaSeriesNames struct {
	queue  string // replica<i>/queue_depth: outstanding (queued+running)
	kvUtil string // replica<i>/kv_util: used device-pool page fraction
	mirror string // replica<i>/host_mirror_bytes: host-tier mirror footprint
}

// Series names that are not per-replica or per-link.
const (
	seriesActiveReplicas = "cluster/active_replicas"
	seriesGatewayDepth   = "gateway/depth"
	seriesAttribRequests = "attrib/requests"
	seriesIndexPending   = "index/pending"
	seriesIndexSessions  = "index/sessions"
	seriesIndexHits      = "index/affinity_hits"
	seriesIndexFallbacks = "index/fallbacks"
	seriesChaosCrashed   = "chaos/crashed_replicas"
	seriesChaosRetries   = "chaos/retry_pending"
	seriesChaosCopies    = "chaos/replications_in_flight"
)

// attribSeriesNames maps each attribution phase onto its running-mean
// series name, in Phase order.
var attribSeriesNames = func() [attribution.NumPhases]string {
	var out [attribution.NumPhases]string
	for p := attribution.Phase(0); p < attribution.NumPhases; p++ {
		out[p] = "attrib/" + p.String() + "_mean_s"
	}
	return out
}()

// autoscaleSeriesNames maps the autoscale signal vector onto registry
// names, in autoscale.SignalNames order.
var autoscaleSeriesNames = func() [len(autoscale.SignalNames)]string {
	var out [len(autoscale.SignalNames)]string
	for i, n := range autoscale.SignalNames {
		out[i] = "autoscale/" + n
	}
	return out
}()

// linkSeriesNames holds one fabric link's precomputed series names.
type linkSeriesNames struct {
	busy    string // link/<name>/busy_s: cumulative wire-busy seconds
	backlog string // link/<name>/backlog_s: queueing delay at the sample
}

// initObsSeries precomputes the per-replica series names. Per-link names
// are keyed by link and built at the link's first sample: a full-mesh pair
// link exists only from its pair's first use on, so the series track
// exactly the links the run has.
func (c *Cluster) initObsSeries() {
	if c.reg == nil {
		return
	}
	for _, rep := range c.replicas {
		id := strconv.Itoa(rep.id)
		c.repSeries = append(c.repSeries, replicaSeriesNames{
			queue:  "replica" + id + "/queue_depth",
			kvUtil: "replica" + id + "/kv_util",
			mirror: "replica" + id + "/host_mirror_bytes",
		})
	}
	c.linkSeries = make(map[*gpu.Link]linkSeriesNames)
}

// recordSampleSeries records one point of every sampling-loop series: per
// replica the queue depth, device KV utilization, and host-mirror bytes;
// per fabric link the cumulative busy seconds and instantaneous backlog;
// and the active-replica count.
func (c *Cluster) recordSampleSeries(now simclock.Time) {
	for i, rep := range c.replicas {
		n := &c.repSeries[i]
		c.reg.Observe(n.queue, now, float64(rep.eng.OutstandingRequests()))
		util := 0.0
		if total := rep.kv.TotalPages(); total > 0 {
			util = float64(total-rep.kv.FreePages()) / float64(total)
		}
		c.reg.Observe(n.kvUtil, now, util)
		c.reg.Observe(n.mirror, now, float64(rep.kv.HostMirrorBytes()))
	}
	c.fab.Topology().EachLink(func(l *gpu.Link) {
		n, ok := c.linkSeries[l]
		if !ok {
			n = linkSeriesNames{busy: "link/" + l.Name() + "/busy_s", backlog: "link/" + l.Name() + "/backlog_s"}
			c.linkSeries[l] = n
		}
		snap := l.Snapshot(now)
		c.reg.Observe(n.busy, now, snap.Busy.Seconds())
		c.reg.Observe(n.backlog, now, snap.Backlog.Seconds())
	})
	c.reg.Observe(seriesActiveReplicas, now, float64(c.activeCount()))
	if c.idx != nil {
		// Staleness at a glance: in-flight publications, indexed sessions,
		// and the cumulative hit / fallback split of indexed decisions.
		st := c.idx.Stats()
		c.reg.Observe(seriesIndexPending, now, float64(st.Pending))
		c.reg.Observe(seriesIndexSessions, now, float64(st.Sessions))
		c.reg.Observe(seriesIndexHits, now, float64(st.AffinityHits))
		c.reg.Observe(seriesIndexFallbacks, now, float64(st.AffinityMisses+
			st.StaleFallbacks+st.HeadroomFallbacks+st.OverloadFallbacks))
	}
	if c.chaos != nil {
		crashed := 0
		for _, rep := range c.replicas {
			if rep.eng.Crashed() {
				crashed++
			}
		}
		c.reg.Observe(seriesChaosCrashed, now, float64(crashed))
		c.reg.Observe(seriesChaosRetries, now, float64(c.chaos.retryPending))
		c.reg.Observe(seriesChaosCopies, now, float64(c.chaos.replicationsInFlight))
	}
	c.recordAttributionSeries(now)
}

// recordAttributionSeries samples the streaming attribution aggregators:
// completed-request count and the running mean of each span phase. It
// runs at the sampling tick, a coordinator event, so the aggregators are
// quiescent. Sums fold across the collectors without materializing a
// merged grid.
func (c *Cluster) recordAttributionSeries(now simclock.Time) {
	if len(c.collectors) == 0 {
		return
	}
	var requests int64
	for _, col := range c.collectors {
		requests += col.Aggregator().Requests()
	}
	c.reg.Observe(seriesAttribRequests, now, float64(requests))
	for p := attribution.Phase(0); p < attribution.NumPhases; p++ {
		var count, total int64
		for _, col := range c.collectors {
			n, t := col.Aggregator().PhaseTotal(p)
			count += n
			total += t
		}
		mean := 0.0
		if count > 0 {
			// Exact integer sums first: the mean is bit-identical whatever
			// the shard count, keeping series exports byte-stable.
			mean = float64(total) / float64(count) / 1e9
		}
		c.reg.Observe(attribSeriesNames[p], now, mean)
	}
}

// recordControlSeries records one point per control tick: the full signal
// vector the policy decided from, and the gateway depth under
// scale-to-zero, so a scale decision in the event log always lines up with
// a recorded vector.
func (c *Cluster) recordControlSeries(now simclock.Time, s autoscale.Signals) {
	if c.reg == nil {
		return
	}
	v := s.Vector()
	for i, name := range autoscaleSeriesNames {
		c.reg.Observe(name, now, v[i])
	}
	if c.gatewayEnabled() {
		c.reg.Observe(seriesGatewayDepth, now, float64(len(c.gateway)))
	}
}
