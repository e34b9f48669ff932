// Package cluster simulates a multi-replica serving deployment: N engine
// replicas — possibly heterogeneous (mixed GPUs, pool sizes, compute
// costs; the BuildEngine callback decides per index) — sharing one virtual
// timeline (shards.go), fronted by a pluggable routing policy
// (internal/router) that assigns each arriving request to a replica at its
// arrival instant.
// Per-replica results are aggregated into a cluster-level report with
// merged TTFT percentiles, total throughput, QoS, and load-imbalance
// statistics (end-of-run and per-sample-tick).
//
// Every KV byte the cluster moves — write-through sync, evictions, loads,
// host-tier reloads, routing migrations, pre-warm, drain hand-off — is
// booked on one transfer fabric (internal/fabric): a topology of named
// links covering each replica's host PCIe pair and the replica
// interconnect. The interconnect is either a full mesh of dedicated
// per-pair links (the default, equivalent to earlier revisions) or shared
// per-replica NIC uplinks behind an optional switch, where concurrent
// transfers that share an endpoint serialize.
//
// With migration enabled, when the routing policy steers a multi-turn
// request away from the replica holding its pinned prefix KV (typically
// because that replica is overloaded), the cluster ships the pinned pages
// to the chosen replica over the fabric instead of letting it recompute
// them. The request is delivered when its KV arrives, so migration latency
// is on the virtual clock and inside the request's TTFT. Under
// MigrateCost the cluster first weighs the queued transfer time on the
// real topology against the target's estimated prefix recompute time and
// skips the migration when the wire loses.
//
// With autoscaling enabled (Config.Autoscale) the replica set is dynamic:
// a control loop on the same virtual clock drives replicas between off,
// warming, active, and draining states under a pluggable policy (see
// internal/autoscale and lifecycle.go). Routing only ever sees active
// replicas; scale-up pays a warm-up latency, optionally overlapped with
// pre-warming the hottest pinned prefixes over the interconnect; scale-down
// drains a replica and hands its pins to the survivors.
//
// The cluster is the simulator's only executor: a single-device run is a
// one-replica cluster with round-robin routing, which reproduces the
// engine's reference driver (its test code) byte for byte. Likewise a
// min=max autoscaled cluster reduces exactly to the static cluster of the
// same size.
package cluster

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/loadboard"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/attribution"
	"repro/internal/prefixindex"
	"repro/internal/request"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Config describes the cluster topology and routing.
type Config struct {
	// Replicas is the number of engine replicas (default 1).
	Replicas int

	// Policy routes arriving requests to replicas. Required; one policy
	// instance serves one run (policies may keep state).
	Policy router.Policy

	// SampleEvery enables cluster-wide queued/running time-series sampling
	// (per replica plus the merged series and the imbalance series); zero
	// disables it and negative is an error.
	SampleEvery time.Duration

	// Shards partitions the replicas across parallel worker goroutines
	// (see shards.go): replica i runs its engine events on the sub-clock
	// of shard i mod Shards, synchronized with the coordinator clock at
	// every cross-replica event. 0 or 1 = one shard; negative is an error.
	// Results are identical at every shard count (the determinism suite
	// asserts deep equality). Clamped to Replicas. The flight recorder is
	// sharded-safe: each shard records onto its own recorder and profiler,
	// emissions route by the event's replica, and the streams merge
	// deterministically at collect — event and trace exports are
	// byte-identical at every shard count.
	Shards int

	// MaxSimTime aborts runaway simulations (default 4 simulated hours;
	// negative is an error): no event later than it fires, and the run
	// reports TimedOut.
	MaxSimTime time.Duration

	// Migrate enables cross-replica KV migration: when the policy routes a
	// session away from the replica pinning its prefix, the pinned pages
	// ship over the interconnect instead of being recomputed.
	Migrate bool

	// MigrationPolicy selects how migrations are committed: MigrateAlways
	// (the default) ships whenever a divert finds a better donor, while
	// MigrateCost first compares the queued transfer time on the real
	// topology against the target's estimated prefix recompute time and
	// declines when the wire loses.
	MigrationPolicy MigrationPolicy

	// Topology selects the interconnect layout and its link bandwidth. Nil
	// selects the full mesh of dedicated per-pair links at the fabric's
	// default bandwidth — the configuration earlier revisions hard-coded,
	// under which no two transfers between different replica pairs ever
	// contend.
	Topology *fabric.Spec

	// Autoscale enables the dynamic replica lifecycle: the cluster builds
	// Autoscale.Max replicas (overriding Replicas) and a control loop
	// grows and shrinks the active set. Nil keeps the static pool. The
	// interconnect mesh is always built under autoscaling (pre-warm and
	// drain hand-off use it) even when Migrate is off.
	Autoscale *AutoscaleConfig

	// PrefixIndex enables the event-published global prefix index
	// (internal/prefixindex): replicas publish KV lifecycle events and
	// load signals, and the gateway maintains the eventually-consistent
	// session → holder map plus load digests that indexed routing policies
	// read in O(1). Nil disables the index — unless the Policy routes
	// against one (router.IndexBinder), in which case the degenerate
	// synchronous spec is assumed and the index mirrors live state
	// exactly. The migration donor scan also reads the index when present.
	PrefixIndex *prefixindex.Spec

	// Obs selects the flight-recorder layers (internal/obs): lifecycle
	// events, per-tick telemetry series, phase self-profiling, and
	// streaming latency attribution (internal/obs/attribution — the
	// per-request span decomposition behind Result.Attribution, recorded
	// through bounded-memory sketches so it scales to runs too large to
	// retain events). The zero value disables everything and the run is
	// byte-identical to a cluster without the recorder. Series sampling
	// rides the SampleEvery loop (per replica) and the control loop
	// (autoscale signals), so series stay empty unless those loops run.
	Obs obs.Options

	// Chaos injects faults — replica crashes, brownouts, link flaps — on
	// the virtual clock, with gateway-driven recovery (internal/chaos and
	// chaos.go). Nil, or a spec with no faults and no redundancy, leaves
	// the run byte-identical to a cluster without the field.
	Chaos *chaos.Spec

	// normalized marks a Config returned by Normalize, whose defaults are
	// already applied: a normalized zero Warmup means instant, not 8s.
	normalized bool
}

// AutoscaleConfig parameterizes the cluster's dynamic replica lifecycle.
type AutoscaleConfig struct {
	// Policy decides per-tick scale actions. Required; one instance
	// serves one run (policies keep hysteresis state).
	Policy autoscale.Policy

	// Min and Max bound the in-service replica set (defaults 1 and the
	// Config's Replicas; Min above Max is an error). Every run starts with
	// Min replicas active.
	Min, Max int

	// ScaleToZero forces Min to 0 and fronts the cluster with a gateway
	// queue: arrivals while no replica is active are buffered (bounded by
	// GatewayDepth, excess shed), trigger a cold-start scale-up, and drain
	// FIFO into the first replica that warms — with the whole buffered
	// wait inside their TTFT.
	ScaleToZero bool

	// GatewayDepth bounds the scale-to-zero gateway buffer (default 512).
	// Negative means zero capacity: every arrival at zero active replicas
	// sheds, though each still triggers the cold start.
	GatewayDepth int

	// Warmup is the latency a scale-up pays before the new replica
	// accepts traffic — model load plus allocator init (default 8s;
	// negative means instant).
	Warmup time.Duration

	// Prewarm overlaps each warm-up with KV pre-warming: the hottest
	// pinned session prefixes of the active replicas migrate to the
	// warming replica over the interconnect, so its first requests hit
	// the prefix cache instead of recomputing.
	Prewarm bool
}

// MigrationPolicy selects how cross-replica migrations are committed.
type MigrationPolicy string

// Migration policies.
const (
	// MigrateAlways ships a pinned prefix whenever routing diverts its
	// session to a replica holding less of it (the pre-cost-model
	// behavior).
	MigrateAlways MigrationPolicy = "always"
	// MigrateCost ships only when the queued transfer time on the real
	// topology beats the target's estimated recompute of the prefix
	// tokens the migration would save.
	MigrateCost MigrationPolicy = "cost"
)

// MigrationPolicies lists the migration policies.
func MigrationPolicies() []MigrationPolicy {
	return []MigrationPolicy{MigrateAlways, MigrateCost}
}

// Normalize fills zero fields with defaults and validates the result.
// Under autoscaling the cluster builds Autoscale.Max replicas (default
// Replicas), so the normalized Replicas is Max; the normalized Autoscale is
// a copy, never the caller's spec. Shards is clamped to [1, Replicas]. The
// topology is defaulted and validated by fabric.NewTopology, the chaos plan
// by chaos.Spec.Normalize. Defaults apply once: normalizing a normalized
// Config returns it unchanged.
func (c Config) Normalize() (Config, error) {
	if !c.normalized {
		c.normalized = true
		if c.Replicas == 0 {
			c.Replicas = 1
		}
		if c.MaxSimTime == 0 {
			c.MaxSimTime = 4 * time.Hour
		}
		if c.MigrationPolicy == "" {
			c.MigrationPolicy = MigrateAlways
		}
		if c.Autoscale != nil {
			a := *c.Autoscale
			if a.ScaleToZero {
				a.Min = 0
			} else if a.Min == 0 {
				a.Min = 1
			}
			if a.Max == 0 {
				a.Max = c.Replicas
			}
			if a.GatewayDepth == 0 {
				a.GatewayDepth = 512
			}
			if a.Warmup == 0 {
				a.Warmup = 8 * time.Second
			} else if a.Warmup < 0 {
				a.Warmup = 0
			}
			c.Autoscale = &a
			c.Replicas = a.Max
		}
	}
	if a := c.Autoscale; a != nil {
		switch {
		case a.Policy == nil:
			return c, fmt.Errorf("cluster: autoscaling enabled with nil policy")
		case !a.ScaleToZero && a.Min < 1:
			return c, fmt.Errorf("cluster: autoscale min %d must be >= 1 (set ScaleToZero for min 0)", a.Min)
		case a.Min > a.Max:
			return c, fmt.Errorf("cluster: autoscale min %d exceeds max %d", a.Min, a.Max)
		}
	}
	switch {
	case c.Replicas < 1:
		return c, fmt.Errorf("cluster: replica count %d must be >= 1", c.Replicas)
	case c.Shards < 0:
		return c, fmt.Errorf("cluster: shard count %d must be >= 0 (0 or 1 = one shard)", c.Shards)
	case c.MaxSimTime < 0:
		return c, fmt.Errorf("cluster: max sim time %v must not be negative", c.MaxSimTime)
	case c.SampleEvery < 0:
		return c, fmt.Errorf("cluster: sample period %v must not be negative (0 disables sampling)", c.SampleEvery)
	case c.Policy == nil:
		return c, fmt.Errorf("cluster: nil routing policy")
	}
	switch c.MigrationPolicy {
	case MigrateAlways, MigrateCost:
	default:
		return c, fmt.Errorf("cluster: unknown migration policy %q (have %v)",
			c.MigrationPolicy, MigrationPolicies())
	}
	c.Shards = min(max(c.Shards, 1), c.Replicas)
	return c, nil
}

// BuildEngine constructs replica i's engine on its shard's clock and the
// replica's endpoint on the cluster's transfer fabric (pass it through as
// engine.Config.Fabric so host transfers are class-accounted on the shared
// topology). Each call must return a fresh engine with a fresh scheduler
// (schedulers are stateful).
type BuildEngine func(replica int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error)

// Deployment is what one replica runs on: its device, the served model,
// the device-memory share for weights + KV and an optional decode-batch
// cap (zero takes the engine's default).
type Deployment struct {
	GPU         gpu.Spec
	Model       model.Spec
	MemFraction float64
	MaxBatch    int
}

// Engines is the BuildEngine of a pool: replica i runs on deps[i mod
// len(deps)] with a fresh scheduler and KV policy from system. One
// deployment makes a homogeneous pool, one per replica a heterogeneous
// one; deps must not be empty. Called with a nil clock and endpoint it
// builds a standalone engine (engine.NewStandalone), for the reference
// driver.
func Engines(deps []Deployment, system func() (sched.Scheduler, engine.KVPolicy, error)) BuildEngine {
	return func(i int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		s, kv, err := system()
		if err != nil {
			return nil, err
		}
		d := deps[i%len(deps)]
		cfg := engine.Config{GPU: d.GPU, Model: d.Model, MemFraction: d.MemFraction,
			MaxBatch: d.MaxBatch, Scheduler: s, KV: kv, Clock: clock, Fabric: ep}
		if clock == nil {
			return engine.NewStandalone(cfg)
		}
		return engine.New(cfg)
	}
}

// replica pairs an engine with its routing and lifecycle bookkeeping; it
// implements router.Replica.
type replica struct {
	id  int
	eng *engine.Engine
	// kv is eng's KV manager (eng.Mem()), called directly for prefix
	// pins, migrations and host mirrors.
	kv     *kvcache.Manager
	routed int

	// state is the autoscaler lifecycle position (always Active in a
	// static cluster). sinceOn stamps the last off→in-service transition
	// and busy accumulates completed in-service periods (GPU-seconds).
	state   autoscale.State
	sinceOn simclock.Time
	busy    time.Duration

	// outMigrations counts this replica's pinned prefixes currently on
	// the interconnect wire; inMigrations counts transfers (and their
	// deferred request injects) still inbound. A draining replica turns
	// off only once both reach zero.
	outMigrations int
	inMigrations  int
}

func (r *replica) ID() int                            { return r.id }
func (r *replica) QueueDepth() int                    { return r.eng.OutstandingRequests() }
func (r *replica) FreeKVPages() int                   { return r.kv.FreePages() }
func (r *replica) TotalKVPages() int                  { return r.kv.TotalPages() }
func (r *replica) FreeKVTokens() int                  { return r.kv.FreePages() * kvcache.PageTokens }
func (r *replica) CachedPrefixTokens(session int) int { return r.kv.PeekPrefix(session) }

// ReplicaStats reports one replica's share of a finished run.
type ReplicaStats struct {
	ID int
	// Routed counts requests the policy assigned to this replica.
	Routed int
	// State is the replica's lifecycle state at the end of the run
	// (always Active in a static cluster).
	State autoscale.State
	// GPUSeconds is the simulated time this replica spent in service
	// (warming, active, or draining).
	GPUSeconds float64
	// Result is the replica's own engine result (its report covers only
	// the requests it served).
	Result *engine.Result
}

// Result is the outcome of one cluster run.
type Result struct {
	Policy   string
	Replicas int

	// Report merges every replica's requests into one cluster-level
	// analysis: TTFT percentiles, throughput, effective throughput, and
	// QoS over the whole population.
	Report metrics.Report

	// Samples is the merged queued/running time series (sums across
	// replicas at each tick).
	Samples []request.Sample

	// Makespan is the time of the cluster's last generated token.
	Makespan time.Duration

	// TimedOut is set when the run hit MaxSimTime before completing.
	TimedOut bool

	// Counters are the run's scalar outcome counters.
	Counters

	// ImbalanceSeries samples the per-replica load imbalance over time:
	// at each sampling tick, the peak-to-mean ratio of outstanding
	// (queued + running) requests across replicas. Empty when sampling is
	// disabled.
	ImbalanceSeries []ImbalancePoint

	// TransferClasses totals the fabric traffic per transfer class (sync,
	// evict, load, reload, migrate, prewarm, drain) across every link of
	// the topology — the movement-cost ledger of the run.
	TransferClasses []fabric.ClassStats

	// ScaleEvents logs every lifecycle transition the control loop drove;
	// ReplicaSeries samples the per-state replica counts at every control
	// tick (both empty in a static cluster).
	ScaleEvents   []ScaleEvent
	ReplicaSeries []ReplicaCountPoint

	// GatewaySeries samples the scale-to-zero gateway depth at every
	// control tick (empty unless ScaleToZero).
	GatewaySeries []GatewayPoint

	// PrefixIndex is the gateway index's end-of-run accounting: the
	// publication ledger (published / dropped / applied / pending), the
	// heartbeat count, and the indexed-affinity outcome counters. Nil when
	// the run maintained no index.
	PrefixIndex *prefixindex.Stats

	// Obs is the run's flight-recorder capture: lifecycle events, telemetry
	// series, and phase timings, per Config.Obs. Nil when every layer was
	// off. The capture is observation only — nilling this field yields a
	// Result deep-equal to the same run without the recorder.
	Obs *obs.Capture

	// Attribution is the critical-path latency attribution report
	// (Config.Obs.Attribution): per-phase latency distributions split by
	// request class and replica, plus the slowest spans for per-request
	// waterfalls. Nil when the layer was off. Observation only, like Obs.
	Attribution *attribution.Report

	// SimEnd is the final virtual-clock reading and InitialInService the
	// replicas in service at t=0 — together with ScaleEvents they let the
	// invariant suite integrate the replica-count trajectory exactly and
	// compare it against GPUSeconds.
	SimEnd           time.Duration
	InitialInService int

	// PerReplica lists each replica's stats in replica order.
	PerReplica []ReplicaStats

	// Requests holds every request across replicas, ordered by ID.
	Requests []*request.Request
}

// Counters are the scalar outcome counters of one cluster run. Result
// embeds them, and so does the public facade's cluster result.
type Counters struct {
	// Imbalance is the peak-to-mean ratio of per-replica generated output
	// tokens (1.0 = perfectly balanced). Under autoscaling only replicas
	// that were routed at least one request count.
	Imbalance float64

	// PrefixHits counts requests admitted with a session prefix-cache hit
	// across replicas (the reuse affinity routing preserved);
	// PrefixHitTokens is the prefill work those hits skipped.
	PrefixHits      int64
	PrefixHitTokens int64

	// Migrations counts cross-replica prefix migrations the cluster
	// performed; MigratedTokens the KV tokens shipped over the fabric;
	// MigrationDrops the installs the target replica had to reject for
	// lack of memory. MigrationsDeclined counts diverts where MigrateCost
	// judged the queued wire slower than recomputing and skipped the
	// transfer (always zero under MigrateAlways).
	Migrations         int64
	MigratedTokens     int64
	MigrationDrops     int64
	MigrationsDeclined int64

	// HostReloads / HostReloadTokens total the host-tier prefix reloads
	// across replicas (evicted pins brought back over h2d instead of
	// recomputed, charged inside TTFT); HostReloadFallbacks the reloads
	// declined by the recompute-vs-reload break-even on a backlogged link;
	// HostReloadDrops the reloads whose pin could not be installed when
	// the transfer landed (the wire was paid but the turn recomputed
	// anyway).
	HostReloads         int64
	HostReloadTokens    int64
	HostReloadFallbacks int64
	HostReloadDrops     int64

	// Autoscaling outcome (zero in a static cluster, except GPUSeconds).
	//
	// GPUSeconds totals the simulated time replicas spent in service
	// (warming, active, or draining) — the cost axis autoscaling trades
	// against tail latency; a static cluster reports
	// replicas × final-clock-time. WarmupStalls counts arrivals routed
	// while at least one replica was still warming: demand the pool had
	// already answered but could not serve yet. Prewarms / PrewarmedTokens
	// total the pre-warm migrations that seeded warming replicas;
	// DrainMigrations / DrainDroppedPins account the pinned prefixes a
	// draining replica handed off or discarded.
	GPUSeconds       float64
	WarmupStalls     int64
	Prewarms         int64
	PrewarmedTokens  int64
	DrainMigrations  int64
	DrainDroppedPins int64

	// Scale-to-zero gateway outcome (zero unless ScaleToZero or chaos).
	//
	// GatewayBuffered counts arrivals held in the gateway while no replica
	// was active; GatewayShed the arrivals dropped because the gateway was
	// full — or, under chaos, because every replica was crash-dead with no
	// gateway to wait in (they appear in no replica's results).
	GatewayBuffered int64
	GatewayShed     int64

	// Chaos outcome (all zero without an active Config.Chaos; see
	// chaos.go). Crashes counts replica crash faults that landed on a live
	// replica; Retries the orphaned requests re-entered (re-routed to a
	// survivor or re-buffered through the gateway); RetryFailures the
	// requests that exhausted the retry budget and failed permanently
	// (they stay in the merged report, unfinished, with censored TTFT).
	// Backfills counts crashed replicas the autoscaler resurrected through
	// the warm-up path. Replications / ReplicatedBytes total the
	// redundancy traffic (proactive mirror copies plus post-crash re-pins)
	// on the fabric's replicate class. Brownouts and LinkFlaps count the
	// faults injected; MigrationsAborted the pin transfers a crash or flap
	// tore off the wire.
	Crashes           int64
	Retries           int64
	RetryFailures     int64
	Backfills         int64
	Replications      int64
	ReplicatedBytes   int64
	Brownouts         int64
	LinkFlaps         int64
	MigrationsAborted int64

	// ForecastError is the predictive policy's mean absolute arrival-rate
	// forecast error in req/s over ForecastSamples scored forecasts (both
	// zero for non-forecasting policies).
	ForecastError   float64
	ForecastSamples int

	// EventsProcessed counts the simulation events fired across every
	// clock of the run (the coordinator clock plus the shard sub-clocks) —
	// the denominator of per-event cost in the core benchmark and a
	// determinism witness: every shard count fires exactly the same events.
	EventsProcessed uint64
}

// GatewayPoint samples the scale-to-zero gateway depth at one control tick.
type GatewayPoint struct {
	At    simclock.Time
	Depth int
}

// ScaleKind labels a lifecycle transition in the scale-event log.
type ScaleKind string

// Scale-event kinds.
const (
	// ScaleWarmup: off → warming (scale-up started paying warm-up).
	ScaleWarmup ScaleKind = "warmup"
	// ScaleActivate: warming → active (warm-up elapsed).
	ScaleActivate ScaleKind = "activate"
	// ScaleReactivate: draining → active (a scale-up cancelled an
	// in-progress drain; the replica was still warm, so no warm-up paid).
	ScaleReactivate ScaleKind = "reactivate"
	// ScaleDrain: active → draining (scale-down stopped routing to it).
	ScaleDrain ScaleKind = "drain"
	// ScaleOff: draining → off (in-flight work finished, pins handed off).
	ScaleOff ScaleKind = "off"
	// ScaleCrash: in-service → off by fault injection (chaos.go): the
	// replica died mid-flight, outside the control loop's will.
	ScaleCrash ScaleKind = "crash"
)

// ScaleEvent is one replica lifecycle transition.
type ScaleEvent struct {
	At      simclock.Time
	Kind    ScaleKind
	Replica int
}

// ReplicaCountPoint samples the per-state replica counts at one control
// tick.
type ReplicaCountPoint struct {
	At                        simclock.Time
	Active, Warming, Draining int
}

// ImbalancePoint is one sample of the per-replica load imbalance.
type ImbalancePoint struct {
	At simclock.Time
	// Value is the peak-to-mean ratio of per-replica outstanding requests
	// at the instant (1.0 = perfectly balanced or idle).
	Value float64
}

// Cluster is a primed multi-replica simulation.
type Cluster struct {
	cfg          Config
	clock        *simclock.Clock
	replicas     []*replica
	views        []router.Replica
	arrivalsDone bool

	// viewScratch backs routable's filtered view under autoscaling or
	// chaos; each routing decision is done with it before the next.
	viewScratch []router.Replica

	// Pin-holder table readers (holders.go): holdersForPick marks a policy
	// that routes on Request.PrefixHolders; holderScratch is the merged
	// holder list prefixHolders returns.
	holdersForPick bool
	holderScratch  []int

	// loads is the live load board the scanning load policies read
	// (loads.go); nil for every other policy.
	loads *loadboard.Board

	// Sharded execution (see shards.go): shards[s] owns the sub-clock of
	// replicas with id ≡ s (mod len(shards)); there is always at least one.
	// busyShards and ttftScratch are reused barrier scratch buffers.
	shards      []*shard
	busyShards  []*shard
	ttftScratch []ttftSample
	// procs is GOMAXPROCS at New, read by the barrier fan-out gate
	// (fanOut); windowMode forces every window inline or fanned out in
	// tests, and its zero value leaves the choice to the gate.
	procs      int
	windowMode windowMode

	// fab is the unified transfer fabric: every replica's host link pair
	// plus the interconnect the Topology spec lays out. Routing
	// migrations, pre-warm, and drain hand-off book on it — and so does
	// every engine-side sync, evict, load, and reload, through the
	// endpoints handed to BuildEngine.
	fab *fabric.TransferScheduler

	migrationsInFlight int

	// Autoscaler bookkeeping (see lifecycle.go).
	scaleEvents   []ScaleEvent
	replicaSeries []ReplicaCountPoint

	// Scale-to-zero gateway (see gateway.go) and the windowed TTFT
	// estimator feeding latency-driven policies. arrivalsThisTick counts
	// arrivals between control ticks — the predictive policy's rate
	// sample.
	gateway          []*request.Request
	gatewaySeries    []GatewayPoint
	ttftWin          *metrics.TTFTWindow
	arrivalsThisTick int

	// Gateway prefix index (see index.go). idx is read and advanced only on
	// the coordinator; pubFns are the per-replica publication closures
	// (heartbeat digests reuse them); pubSeq the per-replica publication
	// counters (sequence numbers, and the count behind the deferred fabric
	// accounting — each slot has the same single writer as the closure);
	// pubScratch is the barrier merge buffer for shard-buffered
	// publications.
	idx        *prefixindex.Index
	idxSpec    prefixindex.Spec
	pubFns     []func(kind prefixindex.EvKind, session int, val, aux int64)
	pubSeq     []uint64
	pubScratch []prefixindex.Pub

	// svcMask records, per sampling tick, which replicas could hold load
	// at that instant (active or draining) — the denominator of the
	// per-tick imbalance series.
	svcMask [][]bool

	// Chaos fault-injection runtime (chaos.go); nil when Config.Chaos is
	// absent or inactive, which gates every chaos hook off the hot path.
	chaos *chaosRuntime

	// Flight recorder (see observe.go). rec/reg/prof are the nil-safe
	// coordinator-side layers, cached so every emission site is one
	// nil-guarded call. Each shard adds its own recorder and profiler:
	// every emission routes by the event's replica (recFor / profFor) so
	// each sink has exactly one writing goroutine, and the streams merge
	// deterministically at collect. repSeries and linkSeries cache the
	// per-replica and per-link series names, so per-tick recording builds
	// no strings.
	rec        *obs.Recorder
	reg        *obs.Registry
	prof       *obs.Profiler
	collectors []*attribution.Collector
	repSeries  []replicaSeriesNames
	linkSeries map[*gpu.Link]linkSeriesNames

	// ctr accumulates the run's event counters (migrations, autoscaling,
	// gateway, chaos); collect adds the per-replica totals.
	ctr Counters
}

// recFor returns the recorder that must capture an event scoped to the
// given replica: the owning shard's recorder. Cluster-scoped events
// (replica < 0) land on the coordinator recorder. The coordinator may
// write a shard recorder directly — shards are quiescent while a
// coordinator event runs (shards.go) — and each replica's events live in
// exactly one recorder, so the merged order is independent of the shard
// count.
func (c *Cluster) recFor(replica int) *obs.Recorder {
	if replica < 0 {
		return c.rec
	}
	return c.shardOf(replica).rec
}

// recorders lists the coordinator recorder followed by the shards'.
func (c *Cluster) recorders() []*obs.Recorder {
	recs := []*obs.Recorder{c.rec}
	for _, sh := range c.shards {
		recs = append(recs, sh.rec)
	}
	return recs
}

// profFor mirrors recFor for the phase profiler.
func (c *Cluster) profFor(replica int) *obs.Profiler {
	if replica < 0 {
		return c.prof
	}
	return c.shardOf(replica).prof
}

// New builds a cluster of cfg.Replicas engines on cfg.Shards shard clocks
// (with autoscaling, Autoscale.Max engines of which Autoscale.Min start
// active).
func New(cfg Config, build BuildEngine) (*Cluster, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if build == nil {
		return nil, fmt.Errorf("cluster: nil engine builder")
	}
	var spec fabric.Spec
	if cfg.Topology != nil {
		spec = *cfg.Topology
	}
	topo, err := fabric.NewTopology(cfg.Replicas, spec)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, clock: simclock.New(), fab: fabric.NewScheduler(topo), procs: runtime.GOMAXPROCS(0)}
	for s := 0; s < cfg.Shards; s++ {
		c.shards = append(c.shards, &shard{id: s, clock: simclock.New()})
	}
	// Flight recorder. Events and Attribution both need lifecycle
	// emissions; when only attribution is on the recorders run
	// store-disabled, feeding the span collectors without retaining the
	// stream. Each shard gets its own recorder/profiler so each sink has a
	// single writing goroutine (recFor/profFor route every emission by the
	// event's replica); collect merges them back into one canonical
	// capture.
	if cfg.Obs.Events || cfg.Obs.Attribution {
		c.rec = obs.NewRecorder()
		for _, sh := range c.shards {
			sh.rec = obs.NewShardRecorder(1 + sh.id)
		}
		for _, r := range c.recorders() {
			if !cfg.Obs.Events {
				r.DisableStore()
			}
		}
	}
	if cfg.Obs.Series {
		c.reg = obs.NewRegistry()
	}
	if cfg.Obs.Profile {
		c.prof = obs.NewProfiler()
		for _, sh := range c.shards {
			sh.prof = obs.NewProfiler()
		}
	}
	if cfg.Obs.Attribution {
		// One collector per shard recorder: lifecycle events are
		// replica-scoped, so each shard's collector sees complete request
		// histories and the per-shard aggregators fold at collect.
		for _, sh := range c.shards {
			col := attribution.NewCollector(attribution.NewAggregator(cfg.Replicas))
			sh.rec.SetTap(col.Observe)
			c.collectors = append(c.collectors, col)
		}
	}
	c.fab.SetObs(c.rec, c.prof)
	for i := 0; i < cfg.Replicas; i++ {
		c.fab.SetReplicaObs(i, c.recFor(i), c.profFor(i))
		eng, err := build(i, c.shardOf(i).clock, c.fab.Endpoint(i))
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		// Installed after build so every builder — experiments, tests,
		// random scenarios — records without opting in.
		eng.SetObs(c.recFor(i), c.profFor(i), i)
		rep := &replica{id: i, eng: eng, kv: eng.Mem(), state: autoscale.Active}
		if cfg.Autoscale != nil && i >= cfg.Autoscale.Min {
			rep.state = autoscale.Off
		}
		c.replicas = append(c.replicas, rep)
		c.views = append(c.views, rep)
	}
	if cfg.Autoscale != nil && autoscale.ObservesTTFT(cfg.Autoscale.Policy) {
		// The windowed TTFT estimator feeds latency-driven policies
		// (slo-target); every replica's first tokens land in one window.
		// Observation only — it adds no clock events, so the simulation
		// itself is byte-unaffected. Policies that never read the signal
		// skip the estimator (and its per-tick sort) entirely.
		c.ttftWin = metrics.NewTTFTWindow()
		for _, rep := range c.replicas {
			// First tokens fire on shard goroutines: buffer them
			// shard-locally and merge at the next barrier (shards.go), so
			// the shared window is only ever written by the coordinator.
			id := rep.id
			sh := c.shardOf(id)
			rep.eng.SetFirstTokenObserver(func(r *request.Request, t simclock.Time) {
				sh.ttft = append(sh.ttft, ttftSample{at: t, replica: id, ttft: t.Sub(r.Arrival)})
			})
		}
	}
	if err := c.initPrefixIndex(); err != nil {
		return nil, err
	}
	c.initLoadBoard()
	c.initLoadObservers()
	c.initPinHolders()
	if err := c.initChaos(); err != nil {
		return nil, err
	}
	c.initObsSeries()
	return c, nil
}

// Fabric exposes the cluster's transfer scheduler (telemetry and tests).
func (c *Cluster) Fabric() *fabric.TransferScheduler { return c.fab }

// Run simulates the workload across the cluster to completion.
func (c *Cluster) Run(w trace.Workload) (*Result, error) {
	if err := c.validate(w); err != nil {
		return nil, err
	}

	// Arrivals: the routing decision happens at the arrival instant, when
	// the policy sees live replica state. Under scale-to-zero an arrival
	// that finds no active replica goes through the gateway instead
	// (gateway.go): buffered or shed, and always a cold-start trigger.
	// The arrivals are one stream on the coordinator clock, opened after
	// the heartbeats and chaos faults and before the sample and control
	// loops, so at an equal instant they fire after the former and before
	// the latter (simclock.Stream's tie rule). A run whose configuration
	// needs no coordinator events at all pre-routes arrivals straight onto
	// the shard clocks instead.
	deadline := simclock.Time(c.cfg.MaxSimTime)
	if c.fastShardPath() {
		c.primeSharded(w)
		return c.collect(c.runSharded(deadline)), nil
	}
	c.scheduleHeartbeats()
	c.scheduleChaos()
	c.clock.Stream(w.Len(),
		func(id int) simclock.Time { return w.Items[id].Arrival },
		func(id int, now simclock.Time) {
			it := w.Items[id]
			c.arrivalsThisTick++
			c.rec.Emit(now, obs.KindArrival, -1, id, it.Session,
				int64(it.PromptLen), int64(it.OutputLen), int64(it.Turn), 0, "")
			if id == w.Len()-1 {
				c.arrivalsDone = true
			}
			if c.gatewayEnabled() && c.activeCount() == 0 {
				// A draining replica is still warm; reactivating it beats
				// buffering behind a cold start.
				c.ensureColdStart(now)
			}
			if c.gatewayEnabled() && c.activeCount() == 0 {
				c.gatewayAdmit(id, it, now)
				return
			}
			if c.chaos != nil && !c.anyRoutable() {
				// Every replica is crash-dead and there is no gateway to
				// wait in: the arrival sheds at the cluster edge.
				c.shedCrashed(id, it, now)
				return
			}
			rep, holders := c.route(id, it)
			rep.routed++
			r := request.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
			r.Session, r.Turn = it.Session, it.Turn
			if c.maybeMigrate(r, it, rep, holders, now) {
				return // Inject happens when the KV arrives.
			}
			rep.eng.Inject(r, now)
		})

	if c.cfg.SampleEvery > 0 {
		var sample func(now simclock.Time)
		sample = func(now simclock.Time) {
			mask := make([]bool, len(c.replicas))
			for i, rep := range c.replicas {
				rep.eng.Sample(now)
				mask[i] = rep.state == autoscale.Active || rep.state == autoscale.Draining
			}
			c.svcMask = append(c.svcMask, mask)
			if c.reg != nil {
				c.recordSampleSeries(now)
			}
			if !c.done() {
				c.clock.After(c.cfg.SampleEvery, sample)
			}
		}
		c.clock.At(0, sample)
	}

	if c.cfg.Autoscale != nil {
		var control func(now simclock.Time)
		control = func(now simclock.Time) {
			c.controlTick(now)
			// A scale-to-zero pool keeps ticking until the policy has
			// walked every replica back to Off: the run's cost accounting
			// should include the idle tail the policy takes to decide the
			// pool is dead, not stop at the last token.
			if !c.done() || c.scaleToZeroPending() {
				c.clock.After(controlEvery, control)
			}
		}
		c.clock.At(0, control)
	}

	return c.collect(c.runSharded(deadline)), nil
}

// validate checks the workload once for the whole pool: it must be
// well-formed and non-empty, and every request must individually fit every
// replica — in a heterogeneous pool any policy may route any request
// anywhere, so the smallest KV pool (the lowest-id one on a tie) bounds
// admissible request sizes and is the replica an oversized request names.
func (c *Cluster) validate(w trace.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if w.Len() == 0 {
		return fmt.Errorf("cluster: empty workload")
	}
	kvTokens := func(rep *replica) int { return rep.kv.TotalPages() * kvcache.PageTokens }
	small := c.replicas[0]
	for _, rep := range c.replicas[1:] {
		if kvTokens(rep) < kvTokens(small) {
			small = rep
		}
	}
	capTokens := kvTokens(small)
	for i, it := range w.Items {
		if it.PromptLen+it.OutputLen+1 > capTokens {
			return fmt.Errorf("replica %d: request %d context %d exceeds KV capacity %d tokens",
				small.id, i, it.PromptLen+it.OutputLen, capTokens)
		}
	}
	return nil
}

// routable is the policy's view: only active replicas receive traffic.
// Warming, draining, and off replicas are invisible to routing — the
// drain guarantee (no request ever lands on a draining replica) is
// enforced here, by construction. The slice preserves replica-ID order, so
// the router's by-ID tie-breaking matches by-index iteration. Under
// autoscaling or chaos it is the cluster's scratch view, valid until the
// next call.
func (c *Cluster) routable() []router.Replica {
	if c.cfg.Autoscale == nil && c.chaos == nil {
		return c.views
	}
	out := c.viewScratch[:0]
	for _, rep := range c.replicas {
		if c.isRoutable(rep) {
			out = append(out, rep)
		}
	}
	c.viewScratch = out
	return out
}

// isRoutable reports whether rep belongs in the routing view: active under
// autoscaling, otherwise alive.
func (c *Cluster) isRoutable(rep *replica) bool {
	if c.cfg.Autoscale != nil {
		return rep.state == autoscale.Active
	}
	return !rep.eng.Crashed()
}

// anyRoutable reports whether routable would be non-empty, without
// building the view.
func (c *Cluster) anyRoutable() bool {
	for _, rep := range c.replicas {
		if c.isRoutable(rep) {
			return true
		}
	}
	return false
}

// route asks the policy to pick among the currently active replicas,
// guarding against out-of-range picks (a policy bug would otherwise panic
// deep in the event loop). holders is the session's pin-holder list the
// policy routed on, nil when it took none; the holders cannot change
// before the arrival's migration check reads them again.
func (c *Cluster) route(id int, it trace.Item) (rep *replica, holders []int) {
	views := c.routable()
	if len(views) == 0 {
		// Without scale-to-zero, Min >= 1 and scale-down stops at Min; with
		// it, the gateway intercepts zero-active arrivals before routing.
		// An empty active set here is a lifecycle bug, not a policy bug.
		panic("cluster: no active replicas to route to")
	}
	if c.cfg.Autoscale != nil && len(views) < len(c.replicas) {
		for _, rep := range c.replicas {
			if rep.state == autoscale.Warming {
				// Capacity this arrival could have used is still loading.
				c.ctr.WarmupStalls++
				break
			}
		}
	}
	rr := router.Request{
		ID:        id,
		Session:   it.Session,
		PromptLen: it.PromptLen,
		OutputLen: it.OutputLen,
		Loads:     c.loads,
	}
	if c.holdersForPick && it.Session != 0 {
		rr.PrefixHolders = c.prefixHolders(it.Session)
		holders = rr.PrefixHolders
	}
	if c.idx != nil {
		// Absorb every publication due by now, so the policy reads a
		// consistent snapshot of the index at the decision instant.
		c.idx.AdvanceTo(c.clock.Now())
	}
	pick := c.cfg.Policy.Pick(rr, views)
	if pick < 0 || pick >= len(views) {
		panic(fmt.Sprintf("cluster: policy %s picked replica %d of %d",
			c.cfg.Policy.Name(), pick, len(views)))
	}
	rep = views[pick].(*replica)
	if c.idx != nil {
		// The policy noted what its indexed decision did; surface the
		// diversions (miss, stale, headroom, overload) to the recorder.
		if o := c.idx.TakeOutcome(); o.Fallback() {
			c.recFor(rep.id).Emit(c.clock.Now(), obs.KindIndexFallback, rep.id, id,
				it.Session, int64(o), 0, 0, 0, o.String())
		}
	}
	if c.rec != nil {
		// The policy's figure of merit for the winner rides the event, so a
		// trace explains the pick. Scoring is read-only (router.Scorer
		// contract), so recording cannot change the route.
		score := 0.0
		if sc, ok := c.cfg.Policy.(router.Scorer); ok {
			score = sc.Score(rr, views[pick])
		}
		c.recFor(rep.id).Emit(c.clock.Now(), obs.KindRouteDecision, rep.id, id, it.Session,
			int64(len(views)), 0, 0, score, c.cfg.Policy.Name())
	}
	return rep, holders
}

// maybeMigrate ships a session's pinned prefix KV to the routed replica
// when a different replica holds it: the donor's pages travel the
// interconnect and the request is delivered with its KV, so the transfer
// is on the clock and inside the request's TTFT. Under MigrateCost the
// transfer is first priced on the real topology — queued path backlog plus
// bottleneck wire time — against the target's estimated recompute of the
// prefix tokens the migration would save, and skipped when the wire loses
// (the donor keeps its pin; the turn recomputes). holders is the route's
// pin-holder list, nil when the policy took none. It reports whether a
// migration was started (and the inject deferred).
func (c *Cluster) maybeMigrate(r *request.Request, it trace.Item, target *replica, holders []int, now simclock.Time) bool {
	if !c.cfg.Migrate || it.Session == 0 {
		return false
	}
	targetOwn := target.kv.PeekPrefix(it.Session)
	donor, best := c.pinDonor(it.Session, target, targetOwn, it.PromptLen, holders)
	if donor < 0 {
		return false
	}
	if c.cfg.MigrationPolicy == MigrateCost {
		_, bytes := c.replicas[donor].kv.PrefixFootprint(it.Session)
		eta := c.fab.ETABetween(donor, target.id, now, bytes)
		// Migrating saves the target from prefilling the donor's prefix
		// beyond what it already caches.
		recompute := target.eng.EstimatePrefill(best - targetOwn)
		if eta >= recompute {
			c.ctr.MigrationsDeclined++
			c.recFor(donor).Emit(now, obs.KindMigrateDecline, donor, r.ID, it.Session,
				int64(target.id), int64(eta), int64(recompute),
				float64(best-targetOwn), "")
			return false
		}
	}
	// The deferred inject rides the transfer completion: the request is
	// delivered together with its KV, so the wire time lands inside TTFT.
	return c.migratePin(c.replicas[donor], target, it.Session, fabric.ClassMigrate, now,
		&c.ctr.Migrations, &c.ctr.MigratedTokens, r, func(t simclock.Time) {
			target.eng.InjectCause(r, t, obs.QueueCauseMigrate)
		})
}

// pinDonor picks the replica to ship a session's pinned prefix from: the
// one pinning the most of it (the lowest ID on a tie) — but only a
// strictly extendable prefix (smaller than the prompt) is worth shipping,
// and only if it beats targetOwn, what the target already holds. Off
// replicas hold no pins; warming and draining replicas may (a pre-warmed
// or not-yet-drained pin), and donating is exactly what they should do.
// holders, when not nil, is the session's pin-holder list already taken
// for the route. It returns donor -1 and best targetOwn when no replica
// qualifies.
func (c *Cluster) pinDonor(session int, target *replica, targetOwn, promptLen int, holders []int) (donor, best int) {
	if c.idx != nil {
		// The gateway decides on the index's own (possibly stale) view —
		// a believed donor whose pin is already gone fails
		// BeginMigrateOut and the turn recomputes.
		if r, t, ok := c.idx.DonorFor(session, target.id, targetOwn, promptLen); ok {
			return r, t
		}
		return -1, targetOwn
	}
	// Only the exact pin holders can donate: O(holders), in ascending ID
	// order like a scan of the whole pool.
	if holders == nil {
		holders = c.prefixHolders(session)
	}
	donor, best = -1, targetOwn
	for _, id := range holders {
		if id == target.id {
			continue
		}
		if t := c.replicas[id].kv.PeekPrefix(session); t > best && t < promptLen {
			donor, best = id, t
		}
	}
	return donor, best
}

// done reports whether all arrivals were injected (including requests
// waiting on an in-flight KV migration or buffered in the gateway) and
// every replica drained its share (a replica routed zero requests counts
// as drained).
func (c *Cluster) done() bool {
	if !c.arrivalsDone || c.migrationsInFlight > 0 || len(c.gateway) > 0 {
		return false
	}
	if c.chaos != nil && (c.chaos.retryPending > 0 || c.chaos.replicationsInFlight > 0) {
		return false
	}
	for _, rep := range c.replicas {
		if rep.eng.OutstandingRequests() > 0 {
			return false
		}
	}
	return true
}

// collect tears down every replica and assembles the cluster result.
func (c *Cluster) collect(timedOut bool) *Result {
	end := c.endNow()
	res := &Result{
		Policy:   c.cfg.Policy.Name(),
		Replicas: len(c.replicas),
		TimedOut: timedOut,
		Counters: c.ctr,
	}
	// Under autoscaling, Imbalance is computed over the replicas that
	// participated (routed at least one request): a replica that stayed
	// off, warmed too late, or drained early served zero by design, and
	// counting its zero load would report imbalance where there was none
	// to balance. In a static cluster every replica is always available,
	// so a zero-routed replica there is genuine imbalance and counts.
	n := 0
	for _, rep := range c.replicas {
		n += rep.eng.Registered()
	}
	if c.chaos != nil {
		n += len(c.chaos.failed)
	}
	if n > 0 {
		res.Requests = make([]*request.Request, 0, n)
	}
	var loads []float64
	for _, rep := range c.replicas {
		if rep.state.InService() {
			rep.busy += end.Sub(rep.sinceOn)
			rep.sinceOn = end
		}
		if timedOut {
			rep.eng.MarkTimedOut()
		}
		er := rep.eng.Collect()
		res.PerReplica = append(res.PerReplica, ReplicaStats{
			ID: rep.id, Routed: rep.routed, State: rep.state,
			GPUSeconds: rep.busy.Seconds(), Result: er,
		})
		res.Requests = append(res.Requests, er.Requests...)
		res.PrefixHits += er.PrefixHits
		res.PrefixHitTokens += er.PrefixHitTokens
		res.HostReloads += er.KV.HostReloads
		res.HostReloadTokens += er.KV.HostReloadTokens
		res.HostReloadFallbacks += er.HostReloadFallbacks
		res.HostReloadDrops += er.KV.HostReloadDrops
		res.GPUSeconds += rep.busy.Seconds()
		if c.cfg.Autoscale == nil || rep.routed > 0 {
			loads = append(loads, float64(er.Report.TotalOut))
		}
	}
	if ch := c.chaos; ch != nil {
		// Requests that exhausted the retry budget belong to no replica;
		// they enter the population unfinished (censored TTFT, zero output)
		// so the cluster report prices the failures it caused.
		res.Requests = append(res.Requests, ch.failed...)
	}
	slices.SortStableFunc(res.Requests, func(a, b *request.Request) int { return cmp.Compare(a.ID, b.ID) })

	makespan := request.Makespan(res.Requests, end)
	res.Makespan = time.Duration(makespan)
	res.Report = metrics.Analyze(res.Requests, makespan, metrics.DefaultQoSParams())
	res.Imbalance = metrics.Imbalance(loads)
	res.Samples = mergeSamples(res.PerReplica)
	res.ImbalanceSeries = imbalanceSeries(res.PerReplica, c.svcMask)
	c.settleIndexTraffic()
	res.TransferClasses = c.fab.ClassStats()
	res.ScaleEvents = c.scaleEvents
	res.ReplicaSeries = c.replicaSeries
	res.GatewaySeries = c.gatewaySeries
	// Attribution report first (timed on the coordinator profiler, so the
	// finalize cost lands in the merged profile), then the capture: the
	// per-shard recorder and profiler streams fold into one canonical
	// view, byte-identical at every shard count.
	if len(c.collectors) > 0 {
		t0 := c.prof.Begin()
		agg := c.collectors[0].Aggregator()
		for _, col := range c.collectors[1:] {
			agg.Add(col.Aggregator())
		}
		res.Attribution = agg.Report()
		c.prof.End(obs.PhaseAttribution, t0)
	}
	if c.cfg.Obs.Events || c.cfg.Obs.Series || c.cfg.Obs.Profile {
		cap := &obs.Capture{Series: c.reg}
		if c.cfg.Obs.Events {
			cap.Events = obs.Merge(c.recorders()...)
		}
		if c.cfg.Obs.Profile {
			profs := []*obs.Profiler{c.prof}
			for _, sh := range c.shards {
				profs = append(profs, sh.prof)
			}
			cap.Profile = obs.MergeProfilers(profs...)
		}
		res.Obs = cap
	}
	if c.idx != nil {
		c.idx.AdvanceTo(end)
		st := c.idx.Stats()
		res.PrefixIndex = &st
	}
	res.SimEnd = time.Duration(end)
	res.EventsProcessed = c.eventsProcessed()
	res.InitialInService = len(c.replicas)
	if a := c.cfg.Autoscale; a != nil {
		res.InitialInService = a.Min
		if f, ok := a.Policy.(autoscale.Forecaster); ok {
			res.ForecastError, res.ForecastSamples = f.ForecastError()
		}
	}
	return res
}

// imbalanceSeries computes, per sampling tick, the peak-to-mean ratio of
// per-replica outstanding (queued + running) requests — the over-time view
// of the end-of-run Imbalance scalar. Only replicas in service at the tick
// (per svc, recorded at sampling time) enter the ratio: an off or warming
// replica holds no load by construction, and counting its zero would
// manufacture imbalance. Series lengths are taken per replica (not from
// replica 0) so a replica with a short series cannot truncate or skew the
// merge.
func imbalanceSeries(per []ReplicaStats, svc [][]bool) []ImbalancePoint {
	n := 0
	for _, rs := range per {
		if len(rs.Result.Samples) > n {
			n = len(rs.Result.Samples)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ImbalancePoint, 0, n)
	for i := 0; i < n; i++ {
		var at simclock.Time
		var loads []float64
		for j, rs := range per {
			if i >= len(rs.Result.Samples) {
				continue
			}
			s := rs.Result.Samples[i]
			at = s.At
			if i < len(svc) && j < len(svc[i]) && !svc[i][j] {
				continue
			}
			loads = append(loads, float64(s.Queued+s.Running))
		}
		out = append(out, ImbalancePoint{At: at, Value: metrics.Imbalance(loads)})
	}
	return out
}

// mergeSamples sums the per-replica queued/running series tick by tick.
// Replicas sample at identical instants (the cluster drives them), so the
// series align by index.
func mergeSamples(per []ReplicaStats) []request.Sample {
	var out []request.Sample
	for _, rs := range per {
		for i, s := range rs.Result.Samples {
			if i == len(out) {
				out = append(out, request.Sample{At: s.At})
			}
			out[i].Queued += s.Queued
			out[i].Running += s.Running
		}
	}
	return out
}
