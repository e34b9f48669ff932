// Package engine is the serving engine of the simulator: an SGLang-style
// iteration-level batching executor (continuous batching, prefill-priority
// or chunked-prefill iterations, reactive OOM eviction) driven by a
// pluggable scheduler, wired to the hierarchical KV cache manager and the
// client consumption processes. One Engine simulates one device serving
// the requests injected into it; runs are deterministic. The engine only
// schedules events on the clock it is given: internal/cluster drives every
// simulation, a single device being a one-replica cluster.
//
// # Fused decode runs
//
// Most decode iterations are quiet continuations: launched from the
// completion of a decode iteration over the kept batch, before the
// scheduler's quiet horizon (sched.Decision.QuietUntil), with no prefill
// waiting and no boundary stall. Such an iteration starts a run (run.go):
// the engine plans the iterations up to the first stop — a batch member
// finishes, a page growth the free pool cannot grant without reclaim, the
// first boundary at or past the horizon, or maxRun iterations — and
// schedules one clock event, at the end of the last. The completions
// before it are applied lazily, each at its own instant t_k with the
// unfused loop's arithmetic: the batch decodes (token delivery, page
// growth, decode-progress events), the latency estimate observes the
// iteration, and the next iteration launches with its write-through
// booked as of t_k.
//
// Touch, settle, truncate: whatever reads state a run changes — free
// pages, a member's tokens or reading state, the device-to-host link and
// its landings, the iteration estimate — first settles the run to the
// clock's position, applying every completion that would have fired by
// then. Whatever writes the engine or its KV manager (an inject, a crash,
// a brownout, a migration or pin install or drop, a load or evict
// completion) also truncates the run to the iteration in flight, whose
// completion becomes the run's clock event, so the next boundary runs the
// whole loop again. The KV manager calls the engine's touch hook on those
// reads and writes (kvcache.Callbacks.Touch), the engine's entry points
// call it first, Collect settles, and a run's deadline settles through
// SettleUntil. Reads a run cannot change (OutstandingRequests, Crashed,
// QueueLengths, pins) do not settle.
//
// The tie key: completion k is keyed (t_k, t_(k-1)) against the event that
// touches the run, in the clock's (time, scheduling instant, sequence)
// order (simclock.Key), which is its (time, sequence) order. A touching
// event scheduled before t_(k-1) goes before completion k and one
// scheduled after it goes after, as in the unfused loop, which scheduled
// completion k at t_(k-1). The first completion holds the sequence number
// the unfused loop's After would have taken, and a write-through chunk
// booked lazily at t_k is keyed (its landing, t_k). An event scheduled at
// t_(k-1) itself is a tie the keys cannot split: touching a lazily applied
// completion from it, or writing the engine from it right after the run's
// own event, panics. The unfused loop stays as the test reference
// (SetUnfused in export_test.go).
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
)

// KVPolicy selects the memory-management feature set (the Table 2
// ablation switches and the host-tier prefix cache); it is the KV
// manager's own policy type, passed through whole.
type KVPolicy = kvcache.Policy

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

	// MaxBatch caps the decode batch (default 256).
	MaxBatch int

	// Scheduler decides admissions and preemptions. Required.
	Scheduler sched.Scheduler

	// KV selects the memory-management policies.
	KV KVPolicy

	// Clock is the virtual clock the engine schedules its events on.
	// Required. Its owner drives the simulation and feeds the engine
	// through Inject/Collect: internal/cluster runs every simulation, a
	// single device being a one-replica cluster.
	Clock *simclock.Clock

	// Fabric is this replica's endpoint on the transfer fabric: host links
	// and the replica interconnect live in one topology, so every transfer
	// class contends on explicitly modelled wires. Required. The engine
	// attaches the host link pair at its GPU's PCIe bandwidth unless the
	// endpoint already has one.
	Fabric *fabric.Endpoint
}

// Engine constants: the cap on the tokens of one prefill iteration batch
// and the session prefix cache's share of KV capacity. Finished turns of multi-turn sessions keep their
// context pinned on the device (LRU within that page budget), so the
// session's next turn prefills only the new tokens; pinned prefixes are
// charged against the KV page pool, evicted under memory pressure, and
// always reclaimed before an admission is allowed to stall. Sessionless
// workloads are unaffected.
const (
	maxPrefillTokens    = 8192
	prefixCacheFraction = 0.5
)

// Normalize fills zero fields with defaults and validates the result: a
// nil scheduler, clock or fabric, a mem fraction outside [0, 1], and a
// negative batch cap are errors. Defaults apply once: normalizing a
// normalized Config returns it unchanged.
func (c Config) Normalize() (Config, error) {
	if c.MemFraction == 0 {
		c.MemFraction = 0.9
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	switch {
	case c.Scheduler == nil:
		return c, fmt.Errorf("engine: nil scheduler")
	case c.Clock == nil:
		return c, fmt.Errorf("engine: nil clock")
	case c.Fabric == nil:
		return c, fmt.Errorf("engine: nil fabric endpoint")
	case !(c.MemFraction >= 0 && c.MemFraction <= 1):
		return c, fmt.Errorf("engine: mem fraction %v out of range [0, 1]", c.MemFraction)
	case c.MaxBatch < 0:
		return c, fmt.Errorf("engine: negative max batch %d", c.MaxBatch)
	}
	if err := c.GPU.Validate(); err != nil {
		return c, err
	}
	if err := c.Model.Validate(); err != nil {
		return c, err
	}
	return c, nil
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

	// TimedOut is set when the driving cluster stopped the run at its
	// deadline before it completed.
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
	cost  *gpu.CostModel
	ep    *fabric.Endpoint
	mem   *kvcache.Manager
	track *request.Tracker

	waiting   []*request.Request
	backlog   []*prefillJob
	running   []*request.Request
	preempted []*request.Request
	loading   []*request.Request

	// runningKV[i] is running[i]'s KV residency handle, taken as the
	// request entered the running set, so the decode step checks and
	// grows its allocation with a field read instead of a map probe.
	// addRunning and removeRunning keep the two slices index-aligned.
	runningKV []kvcache.Handle

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

	// viewBuf/viewBacklog/batchBuf are reused per-kick scratch: the view
	// is rebuilt on every kick that consults the scheduler and the decode
	// batch whenever the running set changed, which on million-request
	// traces would otherwise dominate allocation. The scheduler contract
	// already forbids retaining the view across calls, and at most one
	// iteration is in flight, so single buffers suffice.
	viewBuf     sched.View
	viewBacklog []*request.Request
	batchBuf    []*request.Request
	batchKV     []kvcache.Handle // batchBuf[i]'s residency handle

	// quietUntil is the last decision's sched.Decision.QuietUntil: kicks
	// before it skip the view and Decide, whose answer is promised empty.
	// Every change to a queue's membership (inject, admit, preempt,
	// resume, load done, prefill done, finish, crash) zeroes it. batchValid
	// marks batchBuf/batchKV as the running set's current decode batch and
	// batchCtx as its context sum; addRunning, removeRunning and a crash
	// clear it. advancing is set while advanceDecode delivers tokens.
	quietUntil simclock.Time
	batchCtx   int64
	batchValid bool
	advancing  bool
	// unfused turns fused decode runs off, leaving one clock event per
	// iteration: the test reference (export_test.go), never set outside
	// tests. The three flags share one word, which keeps Engine (with its
	// malloc header) in the 1,024-byte size class.
	unfused bool

	// run is the fused run of quiet decode iterations (run.go), nil until
	// the engine's first.
	run *quietRun

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

	// decodeProbe, when set, observes every decoded token's request and
	// the residency handle the engine holds for it, before the growth
	// check. Tests set it (export_test.go) to hold the handle against
	// the KV manager's map; pure observation, like onFirstToken.
	decodeProbe func(r *request.Request, h kvcache.Handle)

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

	timedOut bool

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
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	cost, err := gpu.NewCostModel(cfg.GPU, cfg.Model)
	if err != nil {
		return nil, err
	}
	capTokens := cost.KVCapacityTokens(cfg.MemFraction)
	if capTokens < kvcache.PageTokens {
		return nil, fmt.Errorf("engine: %s with mem fraction %.2f leaves no KV capacity for %s",
			cfg.GPU.Name, cfg.MemFraction, cfg.Model.Name)
	}
	ep := cfg.Fabric
	if !ep.HostAttached() {
		// A pre-attached endpoint (e.g. an asymmetric host link pair built
		// for a study) keeps its own bandwidths.
		ep.AttachHost(cfg.GPU.PCIeBytesPerSec())
	}
	e := &Engine{
		cfg:   cfg,
		clock: cfg.Clock,
		cost:  cost,
		ep:    ep,
		track: request.NewTracker(),
	}
	// One callback trio for the engine's lifetime: with at most one
	// iteration (or boundary stall) in flight, completion state lives on
	// the engine and these replace a per-iteration closure allocation.
	e.iterDoneFn = func(t simclock.Time) {
		e.endRun()
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
		Policy:        cfg.KV,
		GPUPages:      int(capTokens) / kvcache.PageTokens,
		BytesPerToken: cfg.Model.KVBytesPerToken(),
	}
	kvcfg.PrefixPages = int(prefixCacheFraction * float64(kvcfg.GPUPages))
	e.mem, err = kvcache.New(kvcfg, e.clock, ep, kvcache.Callbacks{
		EvictDone:  e.onEvictDone,
		LoadDone:   e.onLoadDone,
		PinDrained: e.kickFn,
		Touch:      e.touch,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

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

// Mem exposes the engine's KV manager. The manager is built once in New
// and a crash resets it in place, so the pointer never goes stale. The
// cluster calls it directly for prefix pins, migrations and host mirrors;
// operations that must re-kick the engine loop (CompletePrefixMigration,
// DropPrefix) go through the engine.
func (e *Engine) Mem() *kvcache.Manager { return e.mem }

// QueueLengths reports the live occupancy of the engine's queues
// (waiting, prefill backlog, running, preempted, loading) for telemetry.
func (e *Engine) QueueLengths() (waiting, backlog, running, preempted, loading int) {
	return len(e.waiting), len(e.backlog), len(e.running), len(e.preempted), len(e.loading)
}

// LastReadTick reports the latest read tick at or before t over the
// engine's clients (request.Request.ReadTicks). Read ticks are computed, not
// clock events, so whoever drives the clock folds the last one before its
// deadline in at the end of a run, where it would have fired as an event.
func (e *Engine) LastReadTick(t simclock.Time) simclock.Time {
	e.touch(false)
	var last simclock.Time
	for _, r := range e.track.All() {
		l, _ := r.ReadTicks(t)
		last = max(last, l)
	}
	return last
}

// Inject submits an externally created request at the current virtual time.
// The cluster delivers every arrival through it, routed or pre-routed. A
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
	e.touch(true)
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
	e.quietUntil = 0
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
	done, _, _, ok := e.mem.ReloadMirror(r.Session, fabric.ClassReload, now)
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
		e.touch(true)
		e.dropDeferred(r)
		e.pendingInjects--
		e.injectNow(r, t, cause|obs.QueueCauseReload, now)
	})
	e.deferred = append(e.deferred, deferredInject{req: r, handle: h})
	return true
}

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

// Sample appends one point to the engine's queued/running time series.
func (e *Engine) Sample(now simclock.Time) { e.track.Sample(now) }

// CompletePrefixMigration releases a migrated-out prefix; the freed pages
// may unblock stalled admissions, so the loop re-kicks.
func (e *Engine) CompletePrefixMigration(session int, now simclock.Time) {
	e.mem.CompleteMigrateOut(session)
	e.kick(now)
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

// Registered reports how many requests the engine tracks: the length of
// the Requests its Collect returns.
func (e *Engine) Registered() int { return e.track.Total() }

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

// Collect stops outstanding client reading and assembles the Result after
// the clock has been driven to completion (or a deadline).
func (e *Engine) Collect() *Result {
	e.touch(false)
	e.teardown()

	makespan := request.Makespan(e.track.All(), e.clock.Now())
	return &Result{
		Scheduler:           e.cfg.Scheduler.Name(),
		Report:              metrics.Analyze(e.track.All(), makespan, metrics.DefaultQoSParams()),
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
		FreeTokens:         e.mem.FreePages() * kvcache.PageTokens,
		TotalTokens:        e.mem.TotalPages() * kvcache.PageTokens,
		MaxBatch:           e.cfg.MaxBatch,
		Mem:                e.mem,
		Cost:               e.cost,
		AvgIterTime:        e.avgIter,
		AvgPrefillPerToken: e.avgPrefillTok,
	}
	return &e.viewBuf
}
