package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/simclock"
)

// The routing experiment measures what the event-published prefix index
// costs in routing quality as its view goes stale: indexed session-affinity
// routed on a view lagging by `lag` (publication propagation delay +
// heartbeat period) against the two omniscient references. At zero lag the
// index is a pure restatement of replica state, so indexed affinity equals
// omniscient affinity and beats least-queue by preserving prefix reuse; as
// lag grows the index routes on history — holder entries outlive their
// pins, load digests describe queues long since drained — and past a
// threshold the omniscient least-queue scan wins despite recomputing every
// prefix. The curve locates that crossover: the staleness budget a
// deployment can spend on cheap eventually-consistent routing.

// routingReplicas is the pool size of the curve. Small enough that the
// omniscient references are cheap, loaded enough (with clusterWorkload's
// spikes) that routing quality moves tail latency.
const routingReplicas = 4

// routingLags is the swept staleness axis, in seconds of publication
// propagation delay and heartbeat period (0 = the degenerate synchronous
// index).
var routingLags = []float64{0, 0.1, 0.5, 2, 10}

// RoutingPoint is one staleness datapoint of the curve.
type RoutingPoint struct {
	LagSeconds float64
	Res        *cluster.Result
}

// RoutingCurve is the full routing-quality-vs-staleness sweep plus the
// omniscient references it is judged against.
type RoutingCurve struct {
	// Affinity is omniscient session-affinity: the quality ceiling.
	Affinity *cluster.Result
	// LeastQueue is omniscient least-queue: prefix-blind, but its load view
	// is always current — the reference the indexed curve crosses.
	LeastQueue *cluster.Result
	// Points is indexed session-affinity at each routingLags entry.
	Points []RoutingPoint
}

// routingSpec maps a lag in seconds onto an index spec: events propagate
// with that delay and load signalling switches to heartbeat digests on the
// same stride. Zero is the degenerate synchronous index.
func routingSpec(lag float64) *prefixindex.Spec {
	if lag == 0 {
		return &prefixindex.Spec{}
	}
	return &prefixindex.Spec{
		PropagationDelay: simclock.Duration(lag),
		HeartbeatEvery:   simclock.Duration(lag),
		Seed:             7,
	}
}

// RunRoutingCurve runs the sweep and the references concurrently.
func RunRoutingCurve() (*RoutingCurve, error) {
	w := clusterWorkload()
	build := cluster.Engines([]cluster.Deployment{dep4090Llama}, tokenFlow.Make)
	// Cell 0 is omniscient session-affinity, cell 1 omniscient
	// least-queue, and cell 2+i indexed session-affinity at routingLags[i].
	results, err := runCells(len(routingLags)+2, func(i int) (*cluster.Result, error) {
		cfg := cluster.Config{Replicas: routingReplicas}
		switch i {
		case 0:
			cfg.Policy = router.NewSessionAffinity()
		case 1:
			cfg.Policy = router.NewLeastQueue()
		default:
			cfg.Policy = router.NewIndexedSessionAffinity()
			cfg.PrefixIndex = routingSpec(routingLags[i-2])
		}
		return runCluster(cfg, build, w)
	})
	if err != nil {
		return nil, err
	}
	curve := &RoutingCurve{Affinity: results[0], LeastQueue: results[1]}
	for i, lag := range routingLags {
		curve.Points = append(curve.Points, RoutingPoint{LagSeconds: lag, Res: results[i+2]})
	}
	return curve, nil
}

// Crossover reports whether the curve shows the expected shape: indexed
// affinity at zero lag at least matching omniscient least-queue on P99
// TTFT, and the most stale point losing to it.
func (c *RoutingCurve) Crossover() (freshWins, staleLoses bool) {
	lq := c.LeastQueue.Report.P99TTFT
	freshWins = c.Points[0].Res.Report.P99TTFT <= lq
	staleLoses = c.Points[len(c.Points)-1].Res.Report.P99TTFT > lq
	return freshWins, staleLoses
}

// routingRow renders one result as a table row.
func routingRow(name, lag string, res *cluster.Result) []string {
	hits, fallbacks, pending := int64(0), int64(0), int64(0)
	if st := res.PrefixIndex; st != nil {
		hits = st.AffinityHits
		fallbacks = st.AffinityMisses + st.StaleFallbacks +
			st.HeadroomFallbacks + st.OverloadFallbacks
		pending = st.Pending
	}
	return []string{
		name, lag,
		fsec(res.Report.P99TTFT),
		fsec(res.Report.MeanTTFT),
		ftps(res.Report.QoS),
		ftps(res.Report.EffectiveThroughput),
		fint(res.PrefixHits),
		fint(hits),
		fint(fallbacks),
		fint(pending),
	}
}

var routingHeader = []string{"router", "lag(s)", "P99-TTFT", "mean-TTFT", "QoS",
	"eff-thpt(tok/s)", "prefix-hits", "index-hits", "index-fallbacks", "pending-at-end"}

// ExpRouting tabulates the routing-quality-vs-staleness curve and asserts
// its crossover shape.
func ExpRouting() (*Table, error) {
	curve, err := RunRoutingCurve()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "routing",
		Title:  "Gateway routing quality vs index staleness: indexed session-affinity against the omniscient references",
		Header: routingHeader,
	}
	t.Rows = append(t.Rows,
		routingRow(router.NameLeastQueue+" (omniscient)", "-", curve.LeastQueue),
		routingRow(router.NameSessionAffinity+" (omniscient)", "-", curve.Affinity))
	for _, p := range curve.Points {
		t.Rows = append(t.Rows,
			routingRow(router.NameIndexedSessionAffinity, ffloat(p.LagSeconds, 1), p.Res))
	}
	freshWins, staleLoses := curve.Crossover()
	if !freshWins {
		return nil, fmt.Errorf("routing: indexed affinity at zero lag lost to omniscient least-queue on P99 TTFT (%s vs %s)",
			curve.Points[0].Res.Report.P99TTFT, curve.LeastQueue.Report.P99TTFT)
	}
	t.Notes = "Expected shape: at zero lag the indexed run equals omniscient affinity and beats " +
		"least-queue on tail TTFT; past the staleness threshold the current-but-prefix-blind " +
		"least-queue scan wins."
	if !staleLoses {
		t.Notes += " (NOTE: at this scale the most-stale point still beat least-queue.)"
	}
	return t, nil
}
