package engine

import (
	"time"

	"repro/internal/kvcache"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// decodeStride thins decode-progress events: one every this many generated
// tokens (plus the completion event), keeping long generations from
// dominating the event log.
const decodeStride = 32

// kick runs one scheduling step if the device is free: consult the
// scheduler, apply its decision, and launch the next iteration.
func (e *Engine) kick(now simclock.Time) {
	// The KV manager's callbacks (EvictDone for an instant discard) can
	// fire synchronously from inside applyDecision; the reentrancy guard
	// keeps one kick as the sole iteration launcher.
	if e.gpuBusy || e.inKick || e.crashed {
		return
	}
	e.inKick = true
	defer func() { e.inKick = false }()
	t0 := e.prof.Begin()
	defer e.prof.End(obs.PhaseEngineStep, t0)
	// Scheduling dependency of unchunked write-through (§5.2): the
	// boundary waits for outstanding writes.
	if stall := e.mem.IterBoundaryStall(now); stall > 0 {
		e.gpuBusy = true
		e.boundaryStall += stall
		e.stallHandle = e.clock.After(stall, e.stallDoneFn)
		return
	}

	if now >= e.quietUntil {
		// A queue change while the decision applies clears the horizon
		// again (see quietUntil).
		d := e.cfg.Scheduler.Decide(e.view(now))
		e.quietUntil = d.QuietUntil
		e.applyDecision(d, now)
	}

	if e.startIteration(now) {
		return
	}
	// Idle with outstanding work. The engine is strictly event-driven:
	// every state change that could unblock the next iteration already
	// re-kicks the loop (transfer completion via EvictDone/LoadDone, pin
	// drains via PinDrained, iteration and migration completions, deferred
	// host-reload injects). The only trigger no callback covers is time
	// itself — a quantum-gated scheduler changing its answer at quantum
	// expiry — so arm exactly one wakeup there and otherwise stay silent.
	if e.outstanding() {
		e.armRetry(now)
	}
}

// armRetry schedules the single time-driven wakeup a quantum-gated
// scheduler (sched.Waker) needs. Instants at or before now are ignored:
// Decide already ran at now, so an immediate retry cannot differ and would
// spin the event loop.
func (e *Engine) armRetry(now simclock.Time) {
	w, ok := e.cfg.Scheduler.(sched.Waker)
	if !ok {
		return
	}
	next := w.NextDecisionTime(now)
	if next <= now || next == simclock.Forever {
		return
	}
	if e.retryTick.Pending() && e.retryAt == next {
		return
	}
	e.clock.Cancel(e.retryTick)
	e.retryAt = next
	e.retryTick = e.clock.At(next, e.kickFn)
}

// outstanding reports whether any request still needs device time.
func (e *Engine) outstanding() bool {
	return e.OutstandingRequests() > 0
}

// applyDecision executes preemptions then admissions, skipping entries
// that are no longer feasible (the scheduler is optimistic by contract).
func (e *Engine) applyDecision(d sched.Decision, now simclock.Time) {
	for _, r := range d.Preempt {
		if r.State != request.StateRunning || e.mem.Residency(r) != kvcache.ResGPU {
			continue
		}
		e.preemptRunning(r, now)
	}
	for _, adm := range d.Admit {
		r := adm.Req
		switch r.State {
		case request.StateQueued:
			e.admitFresh(r)
		case request.StatePreempted:
			e.resume(r, adm.Mode, now)
		}
	}
}

// preemptRunning evicts a running request via the KV manager.
func (e *Engine) preemptRunning(r *request.Request, now simclock.Time) {
	if _, err := e.mem.Preempt(r, now); err != nil {
		return
	}
	r.Preemptions++
	e.removeRunning(r)
	e.preempted = append(e.preempted, r)
	e.track.Transition(r, request.StatePreempted)
	e.obs.Emit(now, obs.KindPreempt, e.obsReplica, r.ID, r.Session,
		int64(r.PromptLen), int64(r.Generated), 0, 0, "")
}

// admitFresh moves a waiting request into the prefill backlog. A prefix-
// cache hit (CachedPrompt, clamped below PromptLen by Inject) shrinks the
// compute target — the cached prefix KV is already materialized on the
// device — but pages are still reserved for the full prompt.
func (e *Engine) admitFresh(r *request.Request) {
	e.quietUntil = 0
	e.waiting = removeReq(e.waiting, r)
	e.backlog = append(e.backlog, e.newJob(prefillJob{
		req:    r,
		target: r.PromptLen - r.CachedPrompt,
		alloc:  r.PromptLen,
	}))
	e.obs.Emit(e.clock.Now(), obs.KindAdmit, e.obsReplica, r.ID, r.Session,
		int64(r.PromptLen-r.CachedPrompt), int64(r.PromptLen), 0, 0, "")
}

// resume re-admits a preempted request, via host-copy load or recompute.
func (e *Engine) resume(r *request.Request, mode sched.ResumeMode, now simclock.Time) {
	switch e.mem.Residency(r) {
	case kvcache.ResHost:
		if mode == sched.ResumeLoad {
			need := int(e.mem.HostBytes(r) / e.mem.PageBytes())
			if need > e.mem.FreePages() {
				// Cached prefixes yield to live requests before a load
				// stalls.
				e.mem.ReclaimPrefixPages(need-e.mem.FreePages(), now, 0)
			}
			if need > e.mem.FreePages() {
				return // no room yet; scheduler retries later
			}
			if _, err := e.mem.StartLoad(r, now); err != nil {
				return
			}
			r.Resumes++
			r.LoadedResumes++
			e.quietUntil = 0
			e.preempted = removeReq(e.preempted, r)
			e.loading = append(e.loading, r)
			e.track.Transition(r, request.StateLoading)
			e.obs.Emit(now, obs.KindResume, e.obsReplica, r.ID, r.Session,
				int64(r.PromptLen), int64(r.Generated), 0, 0, "load")
			return
		}
		// Recompute chosen although a host copy exists: drop the copy.
		e.mem.Discard(r)
	case kvcache.ResNone:
		// Discarded at preemption (no offload): recompute is the only way.
	default:
		return // still evicting or already loading; retry later
	}
	r.Resumes++
	e.quietUntil = 0
	e.preempted = removeReq(e.preempted, r)
	e.backlog = append(e.backlog, e.newJob(prefillJob{
		req:    r,
		target: r.PromptLen + r.Generated,
		alloc:  r.PromptLen + r.Generated,
		resume: true,
	}))
	e.track.Transition(r, request.StateQueued)
	e.obs.Emit(now, obs.KindResume, e.obsReplica, r.ID, r.Session,
		int64(r.PromptLen), int64(r.Generated), 0, 0, "recompute")
}

// onLoadDone is the KV manager's load-completion callback.
func (e *Engine) onLoadDone(r *request.Request, now simclock.Time) {
	e.loading = removeReq(e.loading, r)
	e.addRunning(r)
	e.track.Transition(r, request.StateRunning)
	e.kick(now)
}

// onEvictDone fires when a preempted request's pages fully left the
// device; freed memory may unblock prefill or loads.
func (e *Engine) onEvictDone(_ *request.Request, now simclock.Time) {
	e.kick(now)
}

// startIteration selects and launches the next device iteration. It
// reports false when there is nothing to run.
func (e *Engine) startIteration(now simclock.Time) bool {
	chunk := e.cfg.Scheduler.PrefillChunkTokens()
	if chunk > 0 {
		return e.startMixedIteration(now, chunk)
	}
	if len(e.backlog) > 0 && e.startPrefillIteration(now) {
		return true
	}
	return e.startDecodeIteration(now)
}

// startPrefillIteration launches a prefill-priority iteration over as many
// backlog jobs as fit the token budget and device memory.
func (e *Engine) startPrefillIteration(now simclock.Time) bool {
	jobs := e.iterJobs[:0]
	budget := maxPrefillTokens
	for _, j := range e.backlog {
		if len(jobs) > 0 && j.target > budget {
			break
		}
		if !e.ensureAllocated(j, now) {
			break // memory exhausted even after reactive eviction
		}
		jobs = append(jobs, j)
		budget -= j.target
		if budget <= 0 {
			break
		}
	}
	e.iterJobs = jobs
	if len(jobs) == 0 {
		return false
	}
	total := 0
	for _, j := range jobs {
		total += j.target
	}
	e.iterKind = iterPrefill
	e.iterTokens = total
	dur := e.cost.PrefillTime(total)
	e.mem.BackgroundSync(now, dur)
	e.launch(now, dur)
	return true
}

// startMixedIteration launches a chunked-prefill iteration: up to
// chunkTokens of the head prefill job ride along the decode batch.
func (e *Engine) startMixedIteration(now simclock.Time, chunkTokens int) bool {
	batch, ctx := e.decodeBatch()
	var job *prefillJob
	prefillTokens := 0
	if len(e.backlog) > 0 {
		j := e.backlog[0]
		if e.ensureAllocated(j, now) {
			job = j
			prefillTokens = j.target - j.done
			if prefillTokens > chunkTokens {
				prefillTokens = chunkTokens
			}
		}
	}
	if job == nil && len(batch) == 0 {
		return false
	}
	e.iterKind = iterMixed
	e.iterJob = job
	e.iterTokens = prefillTokens
	dur := e.cost.MixedStepTime(prefillTokens, len(batch), ctx)
	e.mem.BackgroundSync(now, dur)
	e.launch(now, dur)
	return true
}

// startDecodeIteration launches a pure decode iteration over the running
// batch.
func (e *Engine) startDecodeIteration(now simclock.Time) bool {
	batch, ctx := e.decodeBatch()
	if len(batch) == 0 {
		return false
	}
	e.iterKind = iterDecode
	dur := e.cost.DecodeStepTime(len(batch), ctx)
	e.mem.BackgroundSync(now, dur)
	e.launch(now, dur)
	return true
}

// iterKind tags the in-flight iteration so completeIteration can finish
// it without a per-iteration closure.
type iterKind uint8

const (
	iterPrefill iterKind = iota
	iterMixed
	iterDecode
)

// launch marks the device busy for dur and schedules the engine's single
// completion callback. The iteration's parameters (kind, jobs, batch,
// token count) were staged on the engine by the start* caller; with at
// most one iteration in flight they cannot be overwritten before
// completeIteration consumes them.
func (e *Engine) launch(now simclock.Time, raw time.Duration) {
	dur := raw
	if e.slowdown > 1 {
		// Chaos brownout: the slow node pays the multiplier on every
		// iteration launched inside the fault window.
		dur = time.Duration(float64(dur) * e.slowdown)
	}
	e.iterations++
	e.gpuBusy = true
	e.iterDur = dur
	if e.iterKind == iterDecode {
		e.launchDecode(now, raw, dur)
		return
	}
	e.iterHandle = e.clock.After(dur, e.iterDoneFn)
}

// completeIteration applies the staged iteration's effects at its
// completion instant: prefill jobs land, decode batches advance, and the
// profiled latency estimators observe the iteration.
func (e *Engine) completeIteration(t simclock.Time) {
	switch e.iterKind {
	case iterPrefill:
		e.prefillIters++
		for _, j := range e.iterJobs {
			e.completePrefill(j, t)
		}
		e.observePrefill(e.iterDur, e.iterTokens)
	case iterMixed:
		e.mixedIters++
		if j := e.iterJob; j != nil {
			e.iterJob = nil
			j.done += e.iterTokens
			if j.done >= j.target {
				e.completePrefill(j, t)
			}
			e.observePrefill(e.iterDur, e.iterTokens)
		}
		e.advanceDecode(e.batchBuf, e.batchKV, t)
	case iterDecode:
		e.decodeIters++
		e.advanceDecode(e.batchBuf, e.batchKV, t)
		e.observeDecode(e.iterDur)
	}
}

// decodeBatch collects runnable decode requests up to MaxBatch, and their
// residency handles into batchKV, and reports the batch's context sum. The
// batch reuses one scratch buffer: at most one iteration is ever in
// flight, and its completion callback finishes with the batch before the
// next kick can rebuild it. While the running set is unchanged the batch
// is the same one (its members' prefill and completion state only changes
// as they enter or leave the set), so it is reused with the sum that
// advanceDecode moved by the tokens it delivered. A kick nested inside
// advanceDecode (an instant discard's EvictDone) rebuilds, and keeps
// nothing: the sum lacks the deliveries still to come in that iteration.
func (e *Engine) decodeBatch() ([]*request.Request, int64) {
	if e.batchValid && !e.advancing {
		return e.batchBuf, e.batchCtx
	}
	batch, kv := e.batchBuf[:0], e.batchKV[:0]
	var ctx int64
	for i, r := range e.running {
		if r.PrefillDone() && !r.GenerationDone() {
			batch = append(batch, r)
			kv = append(kv, e.runningKV[i])
			ctx += int64(r.ContextLen())
			if len(batch) >= e.cfg.MaxBatch {
				break
			}
		}
	}
	e.batchBuf, e.batchKV, e.batchCtx, e.batchValid = batch, kv, ctx, !e.advancing
	return batch, ctx
}

// addRunning puts a request whose KV just became resident into the
// running set, with its residency handle.
func (e *Engine) addRunning(r *request.Request) {
	e.quietUntil, e.batchValid = 0, false
	e.running = append(e.running, r)
	e.runningKV = append(e.runningKV, e.mem.Handle(r))
}

// removeRunning takes a request and its handle out of the running set.
func (e *Engine) removeRunning(r *request.Request) {
	e.quietUntil, e.batchValid = 0, false
	for i, x := range e.running {
		if x == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			e.runningKV = append(e.runningKV[:i], e.runningKV[i+1:]...)
			return
		}
	}
}

// ensureAllocated claims device pages for a prefill job. A fresh admission
// with a surviving prefix pin adopts the pin's pages into its allocation
// (the prefix KV is already resident); a hit whose pin was evicted under
// pressure re-prefills at full cost. Admission never evicts running
// requests (that is a scheduling decision), but it does reclaim cached
// prefixes before stalling: when the pool is full the engine evicts pinned
// prefixes LRU-first, and only if that cannot make room does the job stay
// in the backlog to retry after memory frees.
func (e *Engine) ensureAllocated(j *prefillJob, now simclock.Time) bool {
	if j.allocated {
		return true
	}
	adopt := 0
	if !j.resume && j.req.CachedPrompt > 0 {
		if e.mem.PeekPrefix(j.req.Session) >= j.req.CachedPrompt {
			adopt = j.req.Session
		} else {
			// The pin was evicted between arrival and admission: revoke
			// the hit and recompute the whole prompt.
			e.prefixHits--
			e.prefixHitTokens -= int64(j.req.CachedPrompt)
			e.prefixEvictedMisses++
			j.req.CachedPrompt = 0
			j.target = j.alloc
		}
	}
	// +1 covers the token generated by the prefill's own forward pass.
	need := j.alloc + 1
	if !e.mem.CanAdmit(need, adopt) {
		deficit := e.mem.Pages(need) - e.mem.FreePages() - e.mem.AdoptablePages(adopt)
		e.mem.ReclaimPrefixPages(deficit, now, adopt)
		if !e.mem.CanAdmit(need, adopt) {
			return false
		}
	}
	if err := e.mem.AllocateWithPrefix(j.req, need, adopt); err != nil {
		return false
	}
	j.allocated = true
	return true
}

// newJob takes a job from the free list, or allocates one, and sets it.
func (e *Engine) newJob(v prefillJob) *prefillJob {
	j := e.jobFree
	if j == nil {
		j = new(prefillJob)
	} else {
		e.jobFree = j.nextFree
	}
	*j = v
	return j
}

// completePrefill finishes a prefill job: the prompt (or recomputed
// context) is resident and the forward pass yields one token. The job
// leaves the backlog and goes back to the free list: the caller reads it
// no more, and the launched batch that still lists it is rebuilt, from
// [:0], before the next prefill iteration reads it.
func (e *Engine) completePrefill(j *prefillJob, now simclock.Time) {
	r := j.req
	r.PrefilledTokens = r.PromptLen
	e.backlog = removeJob(e.backlog, j)
	*j = prefillJob{nextFree: e.jobFree}
	e.jobFree = j
	e.addRunning(r)
	e.track.Transition(r, request.StateRunning)
	if !r.GenerationDone() {
		first := r.Generated == 0
		r.DeliverTokens(e.clock, now, 1)
		if first {
			e.obs.Emit(now, obs.KindFirstToken, e.obsReplica, r.ID, r.Session,
				int64(r.PromptLen), int64(r.CachedPrompt), 0, 0, "")
			if e.onFirstToken != nil {
				e.onFirstToken(r, now)
			}
		}
	}
	if r.GenerationDone() {
		e.finish(r, now)
	}
}

// advanceDecode appends one token to every batch member, handling page
// growth, OOM, and completion. kv holds the members' residency handles.
func (e *Engine) advanceDecode(batch []*request.Request, kv []kvcache.Handle, now simclock.Time) {
	e.advancing = true
	for i, r := range batch {
		if r.State != request.StateRunning || r.GenerationDone() {
			continue // preempted or finished mid-iteration bookkeeping
		}
		h := kv[i]
		if e.decodeProbe != nil {
			e.decodeProbe(r, h)
		}
		resident, needPage := e.mem.CheckGrowth(h)
		if !resident {
			continue
		}
		if needPage {
			grew := false
			for {
				if e.mem.GrowOne(h) {
					grew = true
					break
				}
				// Cached prefixes are the cheapest memory to take back;
				// only preempt a running victim once no pin can free a
				// page immediately.
				if e.mem.ReclaimPrefixPages(1, now, 0) > 0 {
					continue
				}
				if !e.reactiveEvict(r, now) {
					break
				}
			}
			if !grew {
				continue // stalled this iteration; retries next time
			}
		}
		r.DeliverTokens(e.clock, now, 1)
		e.batchCtx++
		if r.GenerationDone() {
			e.finish(r, now)
		} else if r.Generated%decodeStride == 0 {
			e.obs.Emit(now, obs.KindDecodeProgress, e.obsReplica, r.ID, r.Session,
				int64(r.Generated), int64(r.ContextLen()), 0, 0, "")
		}
	}
	e.advancing = false
}

// reactiveEvict preempts the most recently arrived running request (other
// than protect) to relieve memory pressure — the baseline systems'
// reactive strategy (§2.4). Reports false when no victim exists.
func (e *Engine) reactiveEvict(protect *request.Request, now simclock.Time) bool {
	var victim *request.Request
	for _, r := range e.running {
		if r == protect || !r.PrefillDone() {
			continue
		}
		if victim == nil || r.Arrival > victim.Arrival {
			victim = r
		}
	}
	if victim == nil {
		return false
	}
	e.preemptRunning(victim, now)
	return true
}

// finish releases a completed request. Multi-turn sessions convert their
// resident context into a pinned prefix reservation — the pages stay
// charged to the pool for the session's next turn instead of freeing.
func (e *Engine) finish(r *request.Request, now simclock.Time) {
	if e.mem.PrefixEnabled() && r.Session != 0 {
		e.mem.ReleaseAsPrefix(r, r.Session, now)
	} else {
		e.mem.Discard(r)
	}
	e.removeRunning(r)
	e.track.Transition(r, request.StateFinished)
	e.obs.Emit(now, obs.KindComplete, e.obsReplica, r.ID, r.Session,
		int64(r.Generated), int64(r.PromptLen), 0, 0, "")
	e.notifyLoad()
}

// observeDecode updates the profiled decode iteration latency (EWMA).
func (e *Engine) observeDecode(dur time.Duration) {
	if e.avgIter == 0 {
		e.avgIter = dur
		return
	}
	e.avgIter = (e.avgIter*4 + dur) / 5
}

// observePrefill updates the profiled per-token prefill latency (the
// sliding-window estimate of §4.2.3).
func (e *Engine) observePrefill(dur time.Duration, tokens int) {
	if tokens <= 0 {
		return
	}
	per := dur / time.Duration(tokens)
	if e.avgPrefillTok == 0 {
		e.avgPrefillTok = per
		return
	}
	e.avgPrefillTok = (e.avgPrefillTok*4 + per) / 5
}

func removeReq(s []*request.Request, r *request.Request) []*request.Request {
	for i, x := range s {
		if x == r {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeJob(s []*prefillJob, j *prefillJob) []*prefillJob {
	for i, x := range s {
		if x == j {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
