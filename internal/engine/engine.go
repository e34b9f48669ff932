// Package engine is the serving engine of the simulator: an SGLang-style
// iteration-level batching executor (continuous batching, prefill-priority
// or chunked-prefill iterations, reactive OOM eviction) driven by a
// pluggable scheduler, wired to the hierarchical KV cache manager and the
// client consumption processes. One Engine simulates one device serving
// one workload; runs are deterministic.
package engine

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// KVPolicy selects the memory-management feature set (the Table 2
// ablation switches).
type KVPolicy struct {
	Offload          bool
	WriteThrough     bool
	ChunkedWriting   bool
	LoadEvictOverlap bool
	PriorityWrites   bool

	// HostCache extends session prefix pins past eviction: an evicted
	// pin's host mirror stays reloadable over the host-to-device link, and
	// a returning turn reloads it (inside its TTFT) whenever the measured
	// link backlog says the wire beats recomputing the prefix. Requires
	// Offload. Off by default: it is an extension beyond the paper's §5
	// manager, so the Table 2 ablations are unaffected.
	HostCache bool

	// HostCachePages bounds the host-tier mirror cache in pages (LRU past
	// the budget); 0 means unlimited host memory. Only meaningful with
	// HostCache.
	HostCachePages int
}

// TokenFlowKVPolicy enables the full hierarchical manager of §5.
func TokenFlowKVPolicy() KVPolicy {
	return KVPolicy{Offload: true, WriteThrough: true, ChunkedWriting: true,
		LoadEvictOverlap: true, PriorityWrites: true}
}

// BaselineKVPolicy is reactive recompute-based preemption: no host
// offload, as in the SGLang and Andes baselines.
func BaselineKVPolicy() KVPolicy { return KVPolicy{} }

// Config describes one simulated serving deployment.
type Config struct {
	GPU   gpu.Spec
	Model model.Spec

	// MemFraction is the device-memory share for weights + KV cache
	// (SGLang's --mem-fraction-static; default 0.9).
	MemFraction float64

	// PageTokens is the KV page granularity (default 16).
	PageTokens int

	// MaxBatch caps the decode batch (default 256).
	MaxBatch int

	// MaxPrefillTokens caps the tokens of one prefill iteration batch
	// (default 8192).
	MaxPrefillTokens int

	// Scheduler decides admissions and preemptions. Required.
	Scheduler sched.Scheduler

	// KV selects the memory-management policies.
	KV KVPolicy

	// SampleEvery enables queued/running time-series sampling (Figures
	// 14-15); zero disables it.
	SampleEvery time.Duration

	// QoS parameterizes the report metrics; zero value selects defaults.
	QoS metrics.QoSParams

	// MaxSimTime aborts runaway simulations (default 4 simulated hours).
	MaxSimTime time.Duration

	// PrefixCacheFraction caps the session prefix cache as a share of KV
	// capacity: finished turns of multi-turn sessions keep their context
	// pinned on the device (LRU within this page budget), so the session's
	// next turn prefills only the new tokens. Pinned prefixes are charged
	// against the KV page pool, evicted under memory pressure, and always
	// reclaimed before an admission is allowed to stall. Zero selects the
	// default 0.5; negative disables the cache. Sessionless workloads are
	// unaffected.
	PrefixCacheFraction float64

	// Clock optionally injects a shared virtual clock. When nil the engine
	// owns a fresh clock and Run drives it to completion; when set (the
	// multi-replica cluster case) the owner of the clock drives the
	// simulation and feeds the engine through Inject/Collect.
	Clock *simclock.Clock

	// Fabric optionally injects this replica's endpoint on a shared
	// transfer fabric (the cluster case: host links and the replica
	// interconnect live in one topology, so every transfer class contends
	// on explicitly modelled wires). When nil the engine builds the
	// degenerate single-host fabric. Either way the engine attaches the
	// host link pair at its GPU's PCIe bandwidth.
	Fabric *fabric.Endpoint
}

func (c Config) withDefaults() Config {
	if c.MemFraction == 0 {
		c.MemFraction = 0.9
	}
	if c.PageTokens == 0 {
		c.PageTokens = 16
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.MaxPrefillTokens == 0 {
		c.MaxPrefillTokens = 8192
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 4 * time.Hour
	}
	if c.PrefixCacheFraction == 0 {
		c.PrefixCacheFraction = 0.5
	}
	if c.QoS == (metrics.QoSParams{}) {
		c.QoS = metrics.DefaultQoSParams()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Scheduler == nil {
		return fmt.Errorf("engine: nil scheduler")
	}
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.MemFraction < 0 || c.MemFraction > 1 {
		return fmt.Errorf("engine: mem fraction %v out of range", c.MemFraction)
	}
	return nil
}

// Result is the outcome of one simulation run.
type Result struct {
	Scheduler string
	Report    metrics.Report
	Samples   []request.Sample
	KV        kvcache.Stats
	Requests  []*request.Request

	// Iteration statistics.
	Iterations   int64
	PrefillIters int64
	DecodeIters  int64
	MixedIters   int64

	// BoundaryStall is time lost waiting for unchunked write-through
	// traffic at iteration boundaries.
	BoundaryStall time.Duration

	// PrefixHits counts requests admitted with a session prefix-cache hit;
	// PrefixHitTokens is the total prefill work those hits skipped.
	// PrefixEvictedMisses counts hits revoked at admission because memory
	// pressure evicted the pinned prefix first (those requests re-prefill
	// at full cost).
	PrefixHits          int64
	PrefixHitTokens     int64
	PrefixEvictedMisses int64

	// HostReloadFallbacks counts arrivals whose host-mirrored prefix was
	// available but the recompute-vs-reload break-even declined the reload
	// (a starved or backlogged h2d link): those turns recompute instead.
	// Completed reloads are in KV.HostReloads / KV.HostReloadTokens.
	HostReloadFallbacks int64

	// Makespan is the time of the last generated token (T in Eq. 2).
	Makespan time.Duration

	// TimedOut is set when the run hit MaxSimTime before completing.
	TimedOut bool
}

// prefillJob tracks one admitted request through (possibly chunked or
// recompute) prefill.
type prefillJob struct {
	req *request.Request
	// target is the tokens this prefill must process: the prompt for
	// fresh requests, prompt+generated for recompute resumes.
	target int
	done   int
	// alloc is the context tokens to reserve device pages for. It can
	// exceed target when a prefix-cache hit (CachedPrompt) lets prefill
	// skip recomputing tokens that must still be resident.
	alloc int
	// allocated marks that device pages were claimed.
	allocated bool
	// resume marks a recompute resume (no first-token semantics: the
	// request already streamed tokens before preemption).
	resume bool
}

// Engine simulates one device.
type Engine struct {
	cfg   Config
	clock *simclock.Clock
	cost  gpu.CostModel
	ep    *fabric.Endpoint
	mem   *kvcache.Manager
	track *request.Tracker

	waiting   []*request.Request
	backlog   []*prefillJob
	running   []*request.Request
	preempted []*request.Request
	loading   []*request.Request

	// pendingInjects counts arrivals deferred behind an in-flight host-tier
	// prefix reload: the request is delivered together with its KV, so it
	// is outstanding work the engine (and a draining replica) must wait
	// for, though not yet registered in any queue. deferred tracks those
	// arrivals and their clock handles so a crash can cancel the deliveries
	// and orphan the requests.
	pendingInjects int
	deferred       []deferredInject

	gpuBusy bool
	inKick  bool
	// crashed marks a replica killed by chaos fault injection: the loop
	// refuses to schedule until the cluster backfills it (ClearCrashed).
	crashed bool
	// slowdown > 1 is a chaos brownout: every launched iteration's duration
	// multiplies by it (the slow-node model). 0 or 1 is full speed.
	slowdown float64
	// iterHandle/stallHandle are the in-flight iteration's (or boundary
	// stall's) pending completion events, kept so a crash can cancel them.
	iterHandle  simclock.Handle
	stallHandle simclock.Handle
	// retryTick is the single scheduled wakeup for quantum-gated
	// schedulers (armed at sched.Waker's NextDecisionTime); retryAt is its
	// target instant, kept to avoid cancel/reschedule churn. All other
	// idle-with-outstanding progress is callback-driven.
	retryTick simclock.Handle
	retryAt   simclock.Time

	// arena batch-allocates this engine's self-primed requests; cluster
	// runs inject externally-built requests instead.
	arena request.Arena

	// viewBuf/viewBacklog/batchBuf are reused per-kick scratch: the view
	// and decode batch are rebuilt on every scheduling step, which on
	// million-request traces would otherwise dominate allocation. The
	// scheduler contract already forbids retaining the view across calls,
	// and at most one iteration is in flight, so single buffers suffice.
	viewBuf     sched.View
	viewBacklog []*request.Request
	batchBuf    []*request.Request

	// In-flight iteration completion state. Exactly one iteration runs at
	// a time (gpuBusy), so its parameters live on the engine and the
	// completion callbacks (iterDoneFn, stallDoneFn) are allocated once in
	// New instead of one closure pair per iteration.
	iterDoneFn  func(simclock.Time)
	stallDoneFn func(simclock.Time)
	kickFn      func(simclock.Time)
	iterKind    iterKind
	iterJobs    []*prefillJob // prefill: the launched job batch (reused)
	iterJob     *prefillJob   // mixed: chunked head job, nil when none
	iterTokens  int           // prefill/mixed: prompt tokens this iteration
	iterDur     time.Duration

	// onFirstToken, when set, observes every fresh request's first output
	// token (the cluster feeds its windowed TTFT estimator from it). Pure
	// observation: it must not schedule events or mutate engine state.
	onFirstToken func(r *request.Request, now simclock.Time)

	// onLoad, when set, observes every change to OutstandingRequests —
	// the per-change queue-depth stream replicas publish to the cluster's
	// prefix index. Deduplicated against lastLoad so internal state moves
	// (waiting → running → preempted) never fire it; only injection and
	// completion shift the total. Pure observation, like onFirstToken.
	onLoad   func(outstanding int)
	lastLoad int

	// obs/prof are the optional flight-recorder sinks (nil = off, free);
	// obsReplica is the replica id stamped on emitted events. Pure
	// observation, like onFirstToken.
	obs        *obs.Recorder
	prof       *obs.Profiler
	obsReplica int

	// Profiled estimates exposed to schedulers.
	avgIter       time.Duration
	avgPrefillTok time.Duration

	iterations    int64
	prefillIters  int64
	decodeIters   int64
	mixedIters    int64
	boundaryStall time.Duration

	arrivalsDone bool
	timedOut     bool

	// Session prefix-cache accounting. The cache itself lives in the KV
	// manager as pinned page-pool reservations (kvcache prefix pins); hits
	// shorten prefill for multi-turn sessions routed back to this engine.
	prefixHits          int64
	prefixHitTokens     int64
	prefixEvictedMisses int64
	hostReloadFallbacks int64
}

// New builds an engine for the given deployment.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cost, err := gpu.NewCostModel(cfg.GPU, cfg.Model)
	if err != nil {
		return nil, err
	}
	capTokens := cost.KVCapacityTokens(cfg.MemFraction)
	if capTokens < int64(cfg.PageTokens) {
		return nil, fmt.Errorf("engine: %s with mem fraction %.2f leaves no KV capacity for %s",
			cfg.GPU.Name, cfg.MemFraction, cfg.Model.Name)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.New()
	}
	ep := cfg.Fabric
	if ep == nil {
		ep = fabric.NewSingleHost(cfg.GPU.PCIeBytesPerSec(), cfg.GPU.PCIeBytesPerSec())
	} else if !ep.HostAttached() {
		// A pre-attached endpoint (e.g. an asymmetric host link pair built
		// for a study) keeps its own bandwidths.
		ep.AttachHost(cfg.GPU.PCIeBytesPerSec())
	}
	e := &Engine{
		cfg:   cfg,
		clock: clock,
		cost:  cost,
		ep:    ep,
		track: request.NewTracker(),
	}
	// One callback trio for the engine's lifetime: with at most one
	// iteration (or boundary stall) in flight, completion state lives on
	// the engine and these replace a per-iteration closure allocation.
	e.iterDoneFn = func(t simclock.Time) {
		e.gpuBusy = false
		e.completeIteration(t)
		e.kick(t)
	}
	e.stallDoneFn = func(t simclock.Time) {
		e.gpuBusy = false
		e.kick(t)
	}
	e.kickFn = func(t simclock.Time) { e.kick(t) }
	kvcfg := kvcache.Config{
		PageTokens:       cfg.PageTokens,
		GPUPages:         int(capTokens) / cfg.PageTokens,
		BytesPerToken:    cfg.Model.KVBytesPerToken(),
		Offload:          cfg.KV.Offload,
		WriteThrough:     cfg.KV.WriteThrough,
		ChunkedWriting:   cfg.KV.ChunkedWriting,
		LoadEvictOverlap: cfg.KV.LoadEvictOverlap,
		PriorityWrites:   cfg.KV.PriorityWrites,
		HostCache:        cfg.KV.HostCache,
		HostCachePages:   cfg.KV.HostCachePages,
	}
	if cfg.PrefixCacheFraction > 0 {
		kvcfg.PrefixPages = int(cfg.PrefixCacheFraction * float64(kvcfg.GPUPages))
	}
	e.mem, err = kvcache.New(kvcfg, e.clock, ep, kvcache.Callbacks{
		EvictDone:  e.onEvictDone,
		LoadDone:   e.onLoadDone,
		PinDrained: func(now simclock.Time) { e.kick(now) },
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// HostMirrorBytes reports the host-tier prefix-mirror footprint the
// engine's KV manager currently holds — the quantity the host-memory
// budget bounds and the cluster's telemetry series chart.
func (e *Engine) HostMirrorBytes() int64 { return e.mem.HostMirrorBytes() }

// SetObs installs the flight-recorder sinks on the engine and its KV
// manager, stamping events with the given replica id. Pure observation:
// it must not change any scheduling or memory decision.
func (e *Engine) SetObs(rec *obs.Recorder, prof *obs.Profiler, replica int) {
	e.obs = rec
	e.prof = prof
	e.obsReplica = replica
	e.mem.SetObs(rec, replica)
}

// Clock exposes the engine's virtual clock (for tests and harnesses).
func (e *Engine) Clock() *simclock.Clock { return e.clock }

// Mem exposes the KV manager (read-only use).
func (e *Engine) Mem() *kvcache.Manager { return e.mem }

// QueueLengths reports the live occupancy of the engine's queues
// (waiting, prefill backlog, running, preempted, loading) for telemetry.
func (e *Engine) QueueLengths() (waiting, backlog, running, preempted, loading int) {
	return len(e.waiting), len(e.backlog), len(e.running), len(e.preempted), len(e.loading)
}

// Run simulates the workload to completion and returns the result. It is
// the single-device entry point: Prime the workload, drive the clock, then
// Collect. Engines built on an injected shared clock are driven by their
// owner instead (see internal/cluster).
func (e *Engine) Run(w trace.Workload) (*Result, error) {
	if err := e.Prime(w); err != nil {
		return nil, err
	}
	deadline := simclock.Time(e.cfg.MaxSimTime)
	for e.clock.Peek() <= deadline {
		e.clock.Step()
	}
	// The run times out on the first instant past the deadline, which
	// fires: the next event, or a client read tick that comes first.
	_, tick := e.ReadTicks(deadline)
	if next := e.clock.Peek(); min(next, tick) != simclock.Forever {
		e.timedOut = true
		if tick <= next {
			e.clock.AdvanceTo(tick)
		} else {
			e.clock.Step()
		}
	}
	return e.Collect(), nil
}

// ReadTicks reports, over the engine's clients, the latest read tick at or
// before t and the earliest one after it (request.Request.ReadTicks). Read
// ticks are computed, not clock events, so whoever drives the clock folds
// them in at the end of a run, where it would have fired them as events:
// the last one before the deadline, or the first one past it.
func (e *Engine) ReadTicks(t simclock.Time) (last, next simclock.Time) {
	next = simclock.Forever
	for _, r := range e.track.All() {
		l, n := r.ReadTicks(t)
		last, next = max(last, l), min(next, n)
	}
	return last, next
}

// ValidateWorkload checks that every request of the workload individually
// fits the engine's KV capacity.
func (e *Engine) ValidateWorkload(w trace.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if w.Len() == 0 {
		return fmt.Errorf("engine: empty workload")
	}
	capTokens := e.mem.TotalPages() * e.cfg.PageTokens
	for i, it := range w.Items {
		if it.PromptLen+it.OutputLen+1 > capTokens {
			return fmt.Errorf("engine: request %d context %d exceeds KV capacity %d tokens",
				i, it.PromptLen+it.OutputLen, capTokens)
		}
	}
	return nil
}

// Prime validates the workload and schedules its arrival events (plus the
// sampling loop) on the engine's clock.
func (e *Engine) Prime(w trace.Workload) error {
	if err := e.ValidateWorkload(w); err != nil {
		return err
	}
	for i, it := range w.Items {
		it := it
		id := i
		e.clock.At(it.Arrival, func(now simclock.Time) {
			r := e.arena.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
			r.Session, r.Turn = it.Session, it.Turn
			if id == w.Len()-1 {
				e.arrivalsDone = true
			}
			e.Inject(r, now)
		})
	}
	if e.cfg.SampleEvery > 0 {
		var sample func(now simclock.Time)
		sample = func(now simclock.Time) {
			e.track.Sample(now)
			if !e.done() {
				e.clock.After(e.cfg.SampleEvery, sample)
			}
		}
		e.clock.At(0, sample)
	}
	return nil
}

// Inject submits an externally created request at the current virtual time.
// The cluster router uses it to deliver routed arrivals; Prime uses it for
// the single-device path so both paths share one admission sequence. A
// session prefix-cache hit is assessed here, at arrival — and when the
// device pin is gone but a host-tier mirror survives, the arrival may
// first wait for a host-to-device reload (the wire time lands inside its
// TTFT, exactly like a cross-replica migration).
func (e *Engine) Inject(r *request.Request, now simclock.Time) {
	e.InjectCause(r, now, 0)
}

// InjectCause is Inject carrying the deferral-cause bits accumulated
// upstream of the engine (obs.QueueCauseGateway for gateway-drained
// arrivals, obs.QueueCauseMigrate for injects riding a migration
// completion); a host-reload deferral decided here ORs its own bit in.
// The cause reaches the queue event's payload so latency attribution can
// split the pre-queue gap exactly.
func (e *Engine) InjectCause(r *request.Request, now simclock.Time, cause int64) {
	if e.tryHostReload(r, now, cause) {
		return // delivered when the reloaded prefix is resident
	}
	e.injectNow(r, now, cause, now)
}

// injectNow registers and queues a request whose prefix state is settled.
// injectAt is when the engine first saw the request (InjectCause time);
// now − injectAt is the host-reload deferral, carried on the queue event.
func (e *Engine) injectNow(r *request.Request, now simclock.Time, cause int64, injectAt simclock.Time) {
	if r.Session != 0 {
		// A hit requires the new prompt to strictly extend the pinned
		// context (hit < PromptLen). A cached context at least as long as
		// the prompt means the conversation was truncated upstream — the
		// prefix no longer aligns, so it counts as a miss. The hit is
		// provisional: if memory pressure evicts the pin before this
		// request is admitted, admission revokes it (prefixEvictedMisses).
		if hit := e.mem.TakePrefix(r.Session); hit > 0 && hit < r.PromptLen {
			r.CachedPrompt = hit
			e.prefixHits++
			e.prefixHitTokens += int64(hit)
		}
	}
	e.track.Register(r)
	e.waiting = append(e.waiting, r)
	e.obs.Emit(now, obs.KindQueue, e.obsReplica, r.ID, r.Session,
		int64(r.CachedPrompt), obs.QueuePayload(cause, r.Turn),
		int64(r.Arrival), float64(now.Sub(injectAt)), "")
	e.notifyLoad()
	e.kick(now)
}

// tryHostReload decides the recompute-vs-reload break-even for an arriving
// session turn whose pinned prefix was evicted but host-mirrored: if the
// measured h2d backlog plus wire time undercuts the estimated prefill of
// the mirrored tokens, the mirror reloads and the inject rides the
// transfer completion (reload latency inside TTFT). It reports whether the
// inject was deferred.
func (e *Engine) tryHostReload(r *request.Request, now simclock.Time, cause int64) bool {
	if r.Session == 0 || !e.mem.HostCacheEnabled() {
		return false
	}
	if e.mem.PeekPrefix(r.Session) > 0 {
		return false // device pin present: the normal hit path applies
	}
	tokens := e.mem.HostMirrorTokens(r.Session)
	if tokens <= 0 || tokens >= r.PromptLen {
		return false
	}
	if e.mem.EstimateHostReload(r.Session, now) >= e.EstimatePrefill(tokens) {
		e.hostReloadFallbacks++
		return false // the wire loses: recompute the prefix
	}
	done, _, ok := e.mem.StartHostReload(r.Session, now)
	if !ok {
		return false
	}
	e.pendingInjects++
	e.notifyLoad()
	h := e.clock.At(done, func(t simclock.Time) {
		// The manager's install callback fired first (it was scheduled
		// first for the same instant), so a successful reload is already a
		// pin and injectNow assesses it as an ordinary hit; a dropped
		// install falls back to a full recompute.
		e.dropDeferred(r)
		e.pendingInjects--
		e.injectNow(r, t, cause|obs.QueueCauseReload, now)
	})
	e.deferred = append(e.deferred, deferredInject{req: r, handle: h})
	return true
}

// SetArrivalsDone marks that no further arrivals will be injected, letting
// the sampling loop terminate once all registered requests finish.
func (e *Engine) SetArrivalsDone() { e.arrivalsDone = true }

// SetFirstTokenObserver installs a callback fired when a request generates
// its first output token (TTFT is measurable at that instant). The
// autoscaling control loop uses it to maintain a windowed P99 TTFT.
func (e *Engine) SetFirstTokenObserver(fn func(r *request.Request, now simclock.Time)) {
	e.onFirstToken = fn
}

// SetLoadObserver installs a callback fired whenever OutstandingRequests
// changes — the per-change queue-depth stream a replica publishes to the
// cluster's prefix index. Like onFirstToken it is pure observation.
func (e *Engine) SetLoadObserver(fn func(outstanding int)) { e.onLoad = fn }

// notifyLoad fires the load observer when the outstanding total actually
// moved. Injection and completion are the only movers; internal state
// transitions conserve the sum and never reach the observer.
func (e *Engine) notifyLoad() {
	if e.onLoad == nil {
		return
	}
	if n := e.OutstandingRequests(); n != e.lastLoad {
		e.lastLoad = n
		e.onLoad(n)
	}
}

// MarkTimedOut records that the owning driver aborted the run at its
// simulation-time deadline.
func (e *Engine) MarkTimedOut() { e.timedOut = true }

// CachedPrefixTokens reports the session prefix tokens this engine's KV
// manager holds pinned, without perturbing eviction order (router probe).
func (e *Engine) CachedPrefixTokens(session int) int {
	return e.mem.PeekPrefix(session)
}

// Sample appends one point to the engine's queued/running time series.
func (e *Engine) Sample(now simclock.Time) { e.track.Sample(now) }

// FreeKVPages reports the free device KV pages (router hook).
func (e *Engine) FreeKVPages() int { return e.mem.FreePages() }

// TotalKVPages reports the device KV pool capacity in pages (the capacity
// signal heterogeneous-aware routers weigh).
func (e *Engine) TotalKVPages() int { return e.mem.TotalPages() }

// FreeKVTokens reports the free device KV capacity in tokens.
func (e *Engine) FreeKVTokens() int { return e.mem.FreePages() * e.cfg.PageTokens }

// KVPageTokens reports the KV page granularity in tokens (the conversion
// factor between the prefix index's page digests and token headroom).
func (e *Engine) KVPageTokens() int { return e.cfg.PageTokens }

// SetPrefixPublisher forwards the cluster's prefix-index publication hooks
// to the KV manager (see kvcache.Manager.SetPrefixPublisher).
func (e *Engine) SetPrefixPublisher(pin, mirror func(session, tokens int)) {
	e.mem.SetPrefixPublisher(pin, mirror)
}

// PinnedPrefixPages reports the pool pages currently held by session
// prefix pins (per-replica KV pressure telemetry).
func (e *Engine) PinnedPrefixPages() int { return e.mem.PinnedPrefixPages() }

// BeginPrefixMigration stakes the session's pinned prefix for migration to
// a peer replica, reporting the pinned tokens and wire size. The cluster
// books the interconnect transfer and calls CompletePrefixMigration when
// it finishes.
func (e *Engine) BeginPrefixMigration(session int) (tokens int, bytes int64, ok bool) {
	return e.mem.BeginMigrateOut(session)
}

// CompletePrefixMigration releases a migrated-out prefix; the freed pages
// may unblock stalled admissions, so the loop re-kicks.
func (e *Engine) CompletePrefixMigration(session int, now simclock.Time) {
	e.mem.CompleteMigrateOut(session)
	e.kick(now)
}

// InstallMigratedPrefix materializes a migrated-in session prefix as a
// pinned page-pool reservation on this replica.
func (e *Engine) InstallMigratedPrefix(session, tokens int, now simclock.Time) bool {
	return e.mem.InstallPrefix(session, tokens, now)
}

// HottestPrefixes lists up to k of this replica's pinned session prefixes
// in most-recently-used order (k <= 0 lists all) — the donor set for
// cluster-level KV pre-warming and drain hand-off.
func (e *Engine) HottestPrefixes(k int) []kvcache.PrefixInfo {
	return e.mem.HottestPrefixes(k)
}

// DropPrefix evicts a session's pinned prefix outright (drain hand-off
// when no peer can take it); freed pages may unblock stalled admissions.
func (e *Engine) DropPrefix(session int, now simclock.Time) bool {
	dropped := e.mem.DropPrefix(session, now)
	if dropped {
		e.kick(now)
	}
	return dropped
}

// OutstandingRequests reports how many injected requests have not finished
// generating: the queued+running load a router balances. Arrivals waiting
// on an in-flight host-tier prefix reload count — they are committed work
// this replica must still serve.
func (e *Engine) OutstandingRequests() int {
	return len(e.waiting) + len(e.backlog) + len(e.running) + len(e.preempted) +
		len(e.loading) + e.pendingInjects
}

// EstimatePrefill predicts the prefill compute time for n tokens on this
// device: the profiled per-token latency once iterations have landed, the
// roofline cost model before that. The migration and host-reload cost
// models weigh it against transfer time.
func (e *Engine) EstimatePrefill(tokens int) time.Duration {
	if tokens <= 0 {
		return 0
	}
	if e.avgPrefillTok > 0 {
		return time.Duration(tokens) * e.avgPrefillTok
	}
	return e.cost.PrefillTime(tokens)
}

// PrefixFootprint reports the session's pinned prefix tokens and wire size
// without perturbing the cache (the cluster's migration cost model sizes
// the transfer before committing it).
func (e *Engine) PrefixFootprint(session int) (tokens int, bytes int64) {
	return e.mem.PrefixFootprint(session)
}

// QoSParams exposes the report parameterization (for cluster-level merges).
func (e *Engine) QoSParams() metrics.QoSParams { return e.cfg.QoS }

// Collect stops outstanding client reading and assembles the Result after
// the clock has been driven to completion (or a deadline).
func (e *Engine) Collect() *Result {
	e.teardown()

	var makespan simclock.Time
	for _, r := range e.track.All() {
		if r.FinishedAt > makespan {
			makespan = r.FinishedAt
		}
		if r.Generated > 0 && r.TokenTimes[len(r.TokenTimes)-1] > makespan {
			makespan = r.TokenTimes[len(r.TokenTimes)-1]
		}
	}
	if makespan == 0 {
		makespan = e.clock.Now()
	}

	return &Result{
		Scheduler:           e.cfg.Scheduler.Name(),
		Report:              metrics.Analyze(e.track.All(), makespan, e.cfg.QoS),
		Samples:             e.track.Samples(),
		KV:                  e.mem.Stats(),
		Requests:            e.track.All(),
		Iterations:          e.iterations,
		PrefillIters:        e.prefillIters,
		DecodeIters:         e.decodeIters,
		MixedIters:          e.mixedIters,
		BoundaryStall:       e.boundaryStall,
		PrefixHits:          e.prefixHits,
		PrefixHitTokens:     e.prefixHitTokens,
		PrefixEvictedMisses: e.prefixEvictedMisses,
		HostReloadFallbacks: e.hostReloadFallbacks,
		Makespan:            time.Duration(makespan),
		TimedOut:            e.timedOut,
	}
}

// done reports whether all registered requests finished generating and no
// more arrivals are pending — including arrivals still waiting on an
// in-flight host-tier prefix reload, which are not registered yet.
func (e *Engine) done() bool {
	return e.arrivalsDone && e.pendingInjects == 0 && e.track.FinishedAll()
}

// teardown stops every client's reading at the clock's current instant,
// so the collected requests hold no clock and no pending event.
func (e *Engine) teardown() {
	for _, r := range e.track.All() {
		r.CancelConsumption(e.clock)
	}
}

// view assembles the scheduler's View.
func (e *Engine) view(now simclock.Time) *sched.View {
	e.viewBacklog = e.viewBacklog[:0]
	for _, j := range e.backlog {
		e.viewBacklog = append(e.viewBacklog, j.req)
	}
	e.viewBuf = sched.View{
		Now:                now,
		Waiting:            e.waiting,
		PrefillBacklog:     e.viewBacklog,
		Running:            e.running,
		Preempted:          e.preempted,
		Loading:            e.loading,
		FreeTokens:         e.mem.FreePages() * e.cfg.PageTokens,
		TotalTokens:        e.mem.TotalPages() * e.cfg.PageTokens,
		PageTokens:         e.cfg.PageTokens,
		MaxBatch:           e.cfg.MaxBatch,
		Mem:                e.mem,
		Cost:               e.cost,
		AvgIterTime:        e.avgIter,
		AvgPrefillPerToken: e.avgPrefillTok,
	}
	return &e.viewBuf
}
