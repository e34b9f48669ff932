package tokenflow

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/trace"
)

// RouterPolicy selects how a cluster routes arriving requests to replicas.
type RouterPolicy string

// Routing policies.
const (
	// RouterRoundRobin cycles through replicas in index order.
	RouterRoundRobin RouterPolicy = router.NameRoundRobin
	// RouterLeastQueue routes to the replica with the fewest outstanding
	// (queued + running) requests.
	RouterLeastQueue RouterPolicy = router.NameLeastQueue
	// RouterLeastKV routes to the replica with the most free KV pages.
	RouterLeastKV RouterPolicy = router.NameLeastKV
	// RouterWeightedCapacity routes to the replica with the lowest
	// outstanding load per unit of KV capacity — the load balancer for
	// heterogeneous pools.
	RouterWeightedCapacity RouterPolicy = router.NameWeightedCapacity
	// RouterSessionAffinity sticks multi-turn sessions to the replica
	// holding their pinned prefix KV, falling back to weighted-capacity
	// for stateless requests and overloaded targets (on a homogeneous pool
	// that is the least-queue pick).
	RouterSessionAffinity RouterPolicy = router.NameSessionAffinity
	// RouterIndexedLeastQueue is least-queue against the event-published
	// prefix index: the winner is an O(1) tree-root read, so the
	// per-decision cost is independent of pool size. With the default
	// (degenerate) index spec it picks exactly what RouterLeastQueue
	// picks; under PrefixIndex staleness it routes on the lagged view.
	RouterIndexedLeastQueue RouterPolicy = router.NameIndexedLeastQueue
	// RouterIndexedSessionAffinity is session affinity against the prefix
	// index: holder lookup is a map read and fallbacks are tree-root
	// reads — no per-replica scan anywhere on the hot path.
	RouterIndexedSessionAffinity RouterPolicy = router.NameIndexedSessionAffinity
)

// RouterPolicies lists all routing policies.
func RouterPolicies() []RouterPolicy { return named[RouterPolicy](router.Names()) }

// ReplicaSpec describes one group of identical replicas in a
// heterogeneous cluster.
type ReplicaSpec struct {
	// GPU names the device of this group ("RTX-4090", "A6000", "H200",
	// "Ascend-910B"); empty inherits the cluster Config's GPU.
	GPU string
	// MemFraction overrides the device-memory share for this group; zero
	// inherits the cluster Config's MemFraction.
	MemFraction float64
	// Count is the number of replicas in this group (default 1).
	Count int
}

// ClusterConfig describes a simulated multi-replica deployment: engine
// replicas behind a router, either Replicas identical copies of the
// embedded single-device Config or the heterogeneous pool ReplicaSpecs
// lays out.
type ClusterConfig struct {
	// Config is the per-replica deployment (system, GPU, model, memory).
	Config

	// Replicas is the number of engine replicas (default 1). Ignored when
	// ReplicaSpecs is set.
	Replicas int

	// ReplicaSpecs lays out a heterogeneous pool: each spec contributes
	// Count replicas of its GPU/MemFraction, in order. All replicas serve
	// the same model. Empty means Replicas homogeneous copies of Config.
	ReplicaSpecs []ReplicaSpec

	// Router selects the routing policy (default RouterRoundRobin).
	Router RouterPolicy

	// Migrate enables cross-replica KV migration: when routing steers a
	// session away from the replica pinning its prefix KV, the pinned
	// pages ship over the replica interconnect instead of being
	// recomputed, with the transfer time on the virtual clock.
	Migrate bool

	// MigrationPolicy selects how migrations commit: "always" (default)
	// ships on every divert that finds a better donor; "cost" prices the
	// queued transfer on the real topology against the target's estimated
	// prefix recompute time and skips the migration when the wire loses.
	MigrationPolicy MigrationPolicy

	// Topology selects the interconnect layout of the transfer fabric and
	// its link bandwidth. Nil keeps the full mesh of dedicated per-pair
	// links at 25 GB/s, under which transfers between different replica
	// pairs never contend — the configuration earlier revisions
	// hard-coded.
	Topology *TopologySpec

	// Autoscale enables SLO-driven replica autoscaling: a control loop on
	// the virtual clock grows and shrinks the active replica set between
	// MinReplicas and the replica layout size. Nil keeps the static pool.
	Autoscale *AutoscaleSpec

	// PrefixIndex configures the event-published global prefix index: the
	// gateway-side, eventually-consistent view of every replica's pinned
	// prefixes and load that the indexed routing policies read in O(1).
	// Nil disables it — except under an indexed Router, which then gets
	// the degenerate synchronous index (zero delay, zero drops) and
	// routes exactly like its omniscient twin.
	PrefixIndex *PrefixIndexSpec

	// Shards partitions the replicas of a static round-robin run across
	// parallel goroutines (replica i runs on shard i mod Shards, each with
	// its own clock, and the run is one parallel drain). A routed run —
	// any router but round-robin, migration, autoscaling, active chaos, a
	// prefix index, or retained events — is one clock, with no barrier,
	// whatever Shards says. Results and every Obs export are identical to
	// Shards=0; only wall-clock time changes. Clamped to the replica
	// count. 0 or 1 = one shard; negative is an error.
	Shards int

	// Chaos injects faults on the virtual clock — replica crashes,
	// slow-node brownouts, interconnect link flaps — with full recovery
	// simulated: crash detection after a heartbeat delay, capped
	// exponential-backoff re-routing of orphaned requests, optional pin
	// redundancy (host mirrors on backup replicas, re-pinned after a
	// crash), and autoscaler backfill through the warm-up path. Nil, or a
	// spec with no faults and no redundancy, leaves the run byte-identical
	// to one without the field. Chaos runs stay deterministic: identical
	// specs (including seeded random plans) reproduce identical results at
	// any shard count.
	Chaos *ChaosSpec
}

// FaultKind classifies one injected fault; String gives its name
// ("crash", "brownout", "link-flap").
type FaultKind = chaos.FaultKind

// Fault kinds.
const (
	// FaultCrash kills Replica at At: its in-flight requests are re-routed
	// and its pins and host mirrors vanish.
	FaultCrash = chaos.Crash
	// FaultBrownout multiplies Replica's iteration cost by Factor (which
	// must exceed 1) for Duration.
	FaultBrownout = chaos.Brownout
	// FaultLinkFlap takes the interconnect pair From, To down in both
	// directions for Duration.
	FaultLinkFlap = chaos.LinkFlap
)

// FaultSpec is one scheduled fault in a chaos plan: its Kind, the
// virtual-clock injection instant At, and the fields that kind reads
// (Replica, Duration, Factor, or the link pair From, To).
type FaultSpec = chaos.Fault

// ChaosSpec is the fault-injection plan plus pin redundancy: the scripted
// Faults, RandomFaults seeded-random faults drawn over [0, Horizon) keyed
// by Seed (identical specs inject identical plans), and the
// pin-redundancy factor Redundancy — host-tier mirrors of every pinned
// session prefix kept on K-1 backup replicas (refreshed every 5 s, at
// most 2 copies in flight) and re-pinned from them after a crash; 0 or 1
// disables it. The zero value injects nothing. Recovery itself is fixed:
// a crash is detected after 0.25 s of missed heartbeats, and each
// orphaned request is re-routed up to 3 times with a backoff of 0.25 s
// doubling per attempt. RunCluster validates the spec against the pool
// and never modifies it.
type ChaosSpec = chaos.Spec

// MigrationPolicy selects how cross-replica KV migrations are committed.
type MigrationPolicy = cluster.MigrationPolicy

// Migration policies.
const (
	// MigrateAlways ships a pinned prefix on every divert that finds a
	// better donor, regardless of interconnect backlog.
	MigrateAlways = cluster.MigrateAlways
	// MigrateCost prices the queued transfer on the real topology against
	// the target replica's estimated prefix recompute time and declines
	// migrations the wire would lose.
	MigrateCost = cluster.MigrateCost
)

// MigrationPolicies lists the migration policies.
func MigrationPolicies() []MigrationPolicy { return cluster.MigrationPolicies() }

// PrefixIndexSpec configures the gateway's event-published prefix index:
// how stale the routing view is allowed to get. PropagationDelay is the
// lag before the gateway absorbs a replica's KV or load event; DropRate
// the probability in [0, 1) that a KV lifecycle publication is lost
// (deterministic per Seed, replica and sequence; load signals are never
// dropped); a nonzero HeartbeatEvery switches load signalling to periodic
// digests of queue depth and bucket-quantized free KV pages; and
// MaxStaleness bounds how old a digest may get before indexed policies
// divert to capacity-weighted routing (zero defaults to 3×heartbeat +
// propagation delay under heartbeats, and to no check otherwise). The
// zero value is the degenerate synchronous index — every publication
// applies at its emission instant, so indexed policies route exactly like
// their omniscient twins.
type PrefixIndexSpec = prefixindex.Spec

// PrefixIndexStats reports the gateway index's end-of-run accounting.
type PrefixIndexStats = prefixindex.Stats

// TopologyKind selects the interconnect layout of the transfer fabric.
type TopologyKind = fabric.Kind

// Interconnect layouts.
const (
	// TopologyFullMesh: a dedicated link per directed replica pair — no
	// contention between different pairs (the degenerate default).
	TopologyFullMesh = fabric.FullMesh
	// TopologySharedNIC: one egress and one ingress NIC link per replica,
	// behind an optional shared switch. Concurrent migrations, pre-warms,
	// and drain hand-offs that share an endpoint serialize.
	TopologySharedNIC = fabric.SharedNIC
)

// TopologyKinds lists the interconnect layouts.
func TopologyKinds() []TopologyKind { return fabric.Kinds() }

// TopologySpec describes the interconnect layout of the cluster's
// transfer fabric: Kind (default full mesh), LinkGBps (one link's
// bandwidth, default 25), and SwitchGBps (the shared-NIC switch stage;
// zero is non-blocking). Every KV byte the cluster moves between replicas —
// routing migrations, pre-warm, drain hand-off — is booked on this
// topology's links with FIFO contention, so a shared NIC makes concurrent
// transfers honest about queueing.
type TopologySpec = fabric.Spec

// AutoscalePolicy selects how the autoscaler decides scale actions.
type AutoscalePolicy string

// Autoscaling policies.
const (
	// AutoscaleQueuePressure scales on outstanding requests per
	// provisioned replica (the TTFT-pressure proxy), with hysteresis.
	AutoscaleQueuePressure AutoscalePolicy = autoscale.NameQueuePressure
	// AutoscaleKVUtilization scales on pooled KV-page utilization — the
	// earlier congestion signal for long-context session workloads.
	AutoscaleKVUtilization AutoscalePolicy = autoscale.NameKVUtilization
	// AutoscaleSLOTarget closes a PID-style feedback loop on the windowed
	// observed P99 TTFT, driving it toward TargetP99TTFT.
	AutoscaleSLOTarget AutoscalePolicy = autoscale.NameSLOTarget
	// AutoscalePredictive forecasts the arrival rate (Holt level + trend)
	// and pre-scales one warm-up latency ahead of predicted demand, hiding
	// the warm-up stall a reactive policy pays after the queue has built.
	AutoscalePredictive AutoscalePolicy = autoscale.NamePredictive
)

// AutoscalePolicies lists the autoscaling policies.
func AutoscalePolicies() []AutoscalePolicy { return named[AutoscalePolicy](autoscale.Names()) }

// AutoscaleSpec parameterizes SLO-driven replica autoscaling. The replica
// layout (Replicas or ReplicaSpecs) is the pool, so its size is also the
// autoscaling maximum. The control loop ticks once per second, every run
// starts with MinReplicas active, and a pre-warm ships at most the 8
// hottest pins per donor.
type AutoscaleSpec struct {
	// Policy selects the scale-decision policy (default
	// AutoscaleQueuePressure). Queue-pressure grows at 8 or more
	// outstanding requests per provisioned replica and shrinks at 1 or
	// fewer; kv-utilization grows at 85% pooled KV use or more and shrinks
	// at 30% or less.
	Policy AutoscalePolicy

	// MinReplicas bounds the in-service replica set from below (default 1;
	// above the layout size is an error).
	MinReplicas int

	// ScaleToZero forces MinReplicas to 0 and fronts the cluster with a
	// gateway queue: arrivals while no replica is active are buffered
	// (bounded by GatewayDepth, excess shed and counted), trigger a
	// cold-start scale-up at their own instant, and drain FIFO into the
	// first replica that warms — queue time charged inside their TTFT.
	ScaleToZero bool

	// GatewayDepth bounds the scale-to-zero gateway buffer (default 512;
	// negative means zero capacity — every zero-replica arrival sheds,
	// though each still triggers the cold start).
	GatewayDepth int

	// TargetP99TTFT is the slo-target policy's latency goal (default 2s;
	// negative is an error).
	TargetP99TTFT time.Duration

	// ForecastRatePerReplica is the predictive policy's capacity model:
	// the steady arrival rate in req/s one replica absorbs without queue
	// growth, which the Holt forecast is divided by to size the pool
	// (default 0.6, roughly one RTX-4090 Llama3-8B replica on the session
	// workloads; negative or NaN is an error).
	ForecastRatePerReplica float64

	// Warmup is the latency a scale-up pays before the new replica
	// accepts traffic — model load plus allocator init (default 8s;
	// negative means instant).
	Warmup time.Duration

	// Prewarm overlaps each warm-up with KV pre-warming: the hottest
	// pinned session prefixes migrate from the active replicas to the
	// warming one over the interconnect, so its first requests hit the
	// prefix cache instead of recomputing.
	Prewarm bool
}

// policy validates the spec's policy tuning and constructs the internal
// autoscale policy it names.
func (s AutoscaleSpec) policy() (autoscale.Policy, error) {
	switch {
	case s.TargetP99TTFT < 0:
		return nil, fmt.Errorf("tokenflow: autoscale target P99 TTFT %v must not be negative", s.TargetP99TTFT)
	case !(s.ForecastRatePerReplica >= 0):
		return nil, fmt.Errorf("tokenflow: autoscale forecast rate %v req/s per replica must be zero (default) or positive",
			s.ForecastRatePerReplica)
	}
	name := s.Policy
	if name == "" {
		name = AutoscaleQueuePressure
	}
	return autoscale.New(string(name), s.TargetP99TTFT, s.ForecastRatePerReplica)
}

// ReplicaResult reports one replica's share of a cluster run.
type ReplicaResult struct {
	// ID is the replica index.
	ID int
	// GPU names the replica's device.
	GPU string
	// Routed counts requests the policy assigned to this replica.
	Routed int
	// PrefixHits counts requests this replica admitted with a session
	// prefix-cache hit.
	PrefixHits int64
	// KV is the replica's KV-manager accounting at the end of the run:
	// PinnedPages (pool pages still held by session prefix pins) and
	// PeakPinnedPages (the run's maximum — the memory the prefix cache
	// actually charged), PrefixEvictions under memory pressure,
	// HostReloads of evicted prefixes from the host tier instead of
	// recomputing, HostMirroredPages and HostMirrorBytes (the host memory
	// evicted pins' mirrors still occupy), and the offload, load and
	// migration traffic counters.
	KV KVStats
	// State is the replica's lifecycle state at the end of the run:
	// "off", "warming", "active", or "draining" ("active" always, in a
	// static cluster).
	State string
	// GPUSeconds is the simulated time this replica spent in service
	// (warming, active, or draining).
	GPUSeconds float64
	// Result is the replica's own serving report (covering only the
	// requests it served).
	Result *Result
}

// KVStats is one replica's KV-manager counters.
type KVStats = kvcache.Stats

// ScaleEvent is one replica lifecycle transition the autoscaler drove, at
// instant At: Kind "warmup" (off → warming), "activate" (warming →
// active), "reactivate" (a scale-up cancelled an in-progress drain),
// "drain" (active → draining), "off" (drain completed).
type ScaleEvent = cluster.ScaleEvent

// ClusterCounters are a cluster run's scalar outcome counters: load
// imbalance, prefix hits, migrations, host reloads, autoscaling cost,
// gateway and chaos outcomes, forecast error, and the events processed.
type ClusterCounters = cluster.Counters

// ClusterResult reports a completed cluster simulation.
type ClusterResult struct {
	// Router is the policy that served the run.
	Router RouterPolicy

	// Cluster is the merged cluster-level report: TTFT percentiles,
	// throughput, and QoS over every request across replicas. With one
	// replica and round-robin routing it is identical to Run's Result.
	Cluster *Result

	// Replicas lists per-replica results in replica order.
	Replicas []ReplicaResult

	// ClusterCounters holds the scalar counters; their fields are promoted
	// (res.Migrations, res.GPUSeconds, ...).
	ClusterCounters

	// PrefixEvictions totals pinned prefixes evicted under memory pressure
	// across replicas; PinnedPrefixPages the pages still pinned at the end
	// of the run (prefix residency charged to the pools).
	PrefixEvictions   int64
	PinnedPrefixPages int

	// HostMirrorBytes totals the host-tier prefix-mirror footprint across
	// replicas at the end of the run — the host memory still holding
	// reloadable copies of evicted pins.
	HostMirrorBytes int64

	// Transfers is the fabric's per-class traffic ledger: every byte the
	// run moved, split by purpose (sync, evict, load, reload, migrate,
	// prewarm, drain).
	Transfers []TransferClassStats

	// ScaleUps and ScaleDowns count the autoscaler's scale actions (a
	// cancelled drain counts as a scale-up); ScaleEvents logs every
	// lifecycle transition, from which the per-state replica counts at
	// any instant replay exactly. All zero / empty in a static cluster.
	ScaleUps, ScaleDowns int
	ScaleEvents          []ScaleEvent

	// PrefixIndex is the gateway index's accounting when the run
	// maintained one (Config.PrefixIndex or an indexed Router); nil
	// otherwise.
	PrefixIndex *PrefixIndexStats

	// Obs holds the flight-recorder capture when the run was instrumented
	// (Config.Obs); nil otherwise. Setting it aside, an instrumented
	// ClusterResult is identical to the uninstrumented one.
	Obs *ObsCapture

	// Attribution is the critical-path latency breakdown when
	// Config.Obs.Attribution was on; nil otherwise. Like Obs, it is pure
	// observation: setting it aside, the result is identical to an
	// uninstrumented run.
	Attribution *AttributionReport
}

// TransferClassStats totals one transfer class's traffic across the
// cluster's fabric: Class labels its purpose (String gives "sync",
// "evict", "load", "reload", "migrate", "prewarm", "drain", "index" or
// "replicate"), Transfers and Bytes count its bookings, and Busy is its
// summed bottleneck wire time (queueing excluded).
type TransferClassStats = fabric.ClassStats

// deployments resolves the cluster layout into one deployment per
// replica, applying the embedded Config's values as defaults.
func deployments(cfg ClusterConfig) ([]cluster.Deployment, error) {
	base := ReplicaSpec{GPU: cfg.GPU, MemFraction: cfg.MemFraction}
	if base.GPU == "" {
		base.GPU = "H200"
	}
	specs := cfg.ReplicaSpecs
	if len(specs) == 0 {
		n := cfg.Replicas
		if n == 0 {
			n = 1
		}
		if n < 1 {
			return nil, fmt.Errorf("tokenflow: replica count %d must be >= 1", n)
		}
		specs = []ReplicaSpec{{Count: n}}
	}
	modelName := cfg.Model
	if modelName == "" {
		modelName = "Llama3-8B"
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return nil, err
	}
	var out []cluster.Deployment
	for i, s := range specs {
		if s.Count < 0 {
			return nil, fmt.Errorf("tokenflow: replica spec %d has negative count %d", i, s.Count)
		}
		count := s.Count
		if count == 0 {
			count = 1
		}
		if s.GPU == "" {
			s.GPU = base.GPU
		}
		if s.MemFraction == 0 {
			s.MemFraction = base.MemFraction
		}
		g, err := gpu.ByName(s.GPU)
		if err != nil {
			return nil, err
		}
		for k := 0; k < count; k++ {
			out = append(out, cluster.Deployment{GPU: g, Model: m, MemFraction: s.MemFraction})
		}
	}
	return out, nil
}

// RunCluster simulates the replica pool (Replicas identical copies, or
// the heterogeneous layout of ReplicaSpecs) serving the workload behind
// the selected routing policy, all on one virtual clock.
func RunCluster(cfg ClusterConfig, w Workload) (*ClusterResult, error) {
	if cfg.Router == "" {
		cfg.Router = RouterRoundRobin
	}
	if cfg.System == "" {
		cfg.System = SystemTokenFlow
	}
	deps, err := deployments(cfg)
	if err != nil {
		return nil, err
	}
	var asCfg *cluster.AutoscaleConfig
	if spec := cfg.Autoscale; spec != nil {
		pol, err := spec.policy()
		if err != nil {
			return nil, err
		}
		asCfg = &cluster.AutoscaleConfig{
			Policy:       pol,
			Min:          spec.MinReplicas,
			Max:          len(deps),
			Warmup:       spec.Warmup,
			Prewarm:      spec.Prewarm,
			ScaleToZero:  spec.ScaleToZero,
			GatewayDepth: spec.GatewayDepth,
		}
	}
	pol, err := router.ByName(string(cfg.Router))
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Replicas:        len(deps),
		Policy:          pol,
		SampleEvery:     cfg.SampleEvery,
		MaxSimTime:      cfg.MaxSimTime,
		Migrate:         cfg.Migrate,
		MigrationPolicy: cfg.MigrationPolicy,
		Topology:        cfg.Topology,
		Autoscale:       asCfg,
		PrefixIndex:     cfg.PrefixIndex,
		Shards:          cfg.Shards,
		Obs:             cfg.Obs.options(),
		Chaos:           cfg.Chaos,
	}, cluster.Engines(deps, cfg.Config.system))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := cl.Run(trace.Workload{Name: "api", Items: w})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	out := &ClusterResult{
		Router: cfg.Router,
		Cluster: &Result{System: cfg.System, Report: res.Report, TimedOut: res.TimedOut,
			Samples: res.Samples},
		ClusterCounters: res.Counters,
		Transfers:       res.TransferClasses,
		ScaleEvents:     res.ScaleEvents,
		PrefixIndex:     res.PrefixIndex,
		Attribution:     res.Attribution,
	}
	for _, ev := range res.ScaleEvents {
		// A cancelled drain restores capacity just like a warm-up does, so
		// reactivations count as scale-ups — the up/down totals then match
		// the control loop's actual activity under flapping load.
		switch ev.Kind {
		case cluster.ScaleWarmup, cluster.ScaleReactivate:
			out.ScaleUps++
		case cluster.ScaleDrain:
			out.ScaleDowns++
		}
	}
	for i, rs := range res.PerReplica {
		kv := rs.Result.KV
		out.Replicas = append(out.Replicas, ReplicaResult{
			ID:         rs.ID,
			GPU:        deps[i].GPU.Name,
			Routed:     rs.Routed,
			PrefixHits: rs.Result.PrefixHits,
			KV:         kv,
			State:      rs.State.String(),
			GPUSeconds: rs.GPUSeconds,
			Result: &Result{System: cfg.System, Report: rs.Result.Report, TimedOut: rs.Result.TimedOut,
				Samples: rs.Result.Samples},
		})
		out.PrefixEvictions += kv.PrefixEvictions
		out.PinnedPrefixPages += kv.PinnedPages
		out.HostMirrorBytes += kv.HostMirrorBytes
	}
	if res.Obs != nil {
		out.Obs = newObsCapture(res.Obs, "cluster-"+string(cfg.Router), wall)
		if cfg.Obs.Out != "" {
			if _, err := out.Obs.WriteFiles(cfg.Obs.Out); err != nil {
				return nil, err
			}
		}
	}
	if res.Attribution != nil && cfg.Obs.Out != "" {
		if err := writeAttributionJSON(cfg.Obs.Out, res.Attribution); err != nil {
			return nil, err
		}
	}
	return out, nil
}
