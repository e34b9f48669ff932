package engine

// Chaos support: the engine-side half of replica crash injection and the
// brownout slow-node model. Crash tears one replica down mid-flight on the
// virtual clock — every queued, running, preempted, loading, and
// reload-deferred request is orphaned back to the caller for gateway
// retry, every pending completion event is cancelled, and the KV manager
// wipes — leaving the engine inert until the cluster backfills it through
// the normal warm-up path.

import (
	"sort"

	"repro/internal/request"
	"repro/internal/simclock"
)

// deferredInject is one arrival parked behind an in-flight host-tier
// prefix reload, with the clock handle delivering it.
type deferredInject struct {
	req    *request.Request
	handle simclock.Handle
}

// dropDeferred forgets a delivered deferred inject.
func (e *Engine) dropDeferred(r *request.Request) {
	for i := range e.deferred {
		if e.deferred[i].req == r {
			e.deferred = append(e.deferred[:i], e.deferred[i+1:]...)
			return
		}
	}
}

// SetSlowdown installs a chaos brownout factor: every iteration launched
// while it exceeds 1 takes that multiple of its modelled duration. Factors
// at or below 1 restore full speed.
func (e *Engine) SetSlowdown(factor float64) {
	e.touch(true)
	e.slowdown = factor
}

// Crashed reports whether the engine is down awaiting backfill.
func (e *Engine) Crashed() bool { return e.crashed }

// ClearCrashed returns a backfilled engine to service (the cluster calls
// it when the replacement replica's warm-up completes).
func (e *Engine) ClearCrashed() { e.crashed = false }

// Crash kills the engine at now: all in-flight work is orphaned, every
// pending engine event (iteration completion, boundary stall, scheduler
// wakeup, deferred reload injects, client end-of-reading events) is
// cancelled, and the KV manager loses every byte it held. Orphans are removed from
// the tracker — the dead replica's results must not count requests that
// will retry elsewhere — and returned in request-id order. Requests that
// already finished stay in the tracker: their tokens were delivered.
func (e *Engine) Crash(now simclock.Time) (orphans []*request.Request, pinsLost, mirrorsLost int) {
	if e.crashed {
		return nil, 0, 0
	}
	e.touch(true)
	e.run.close() // its event is cancelled below
	e.crashed = true

	e.clock.Cancel(e.iterHandle)
	e.clock.Cancel(e.stallHandle)
	e.clock.Cancel(e.retryTick)
	e.iterHandle, e.stallHandle, e.retryTick = simclock.Handle{}, simclock.Handle{}, simclock.Handle{}
	e.retryAt = 0
	e.gpuBusy, e.inKick = false, false
	e.iterJobs, e.iterJob = e.iterJobs[:0], nil
	e.batchBuf, e.batchKV = e.batchBuf[:0], e.batchKV[:0]
	e.batchValid, e.quietUntil = false, 0

	take := func(r *request.Request) {
		e.track.Remove(r)
		r.CancelConsumption(e.clock)
		orphans = append(orphans, r)
	}
	for _, r := range e.waiting {
		take(r)
	}
	for _, j := range e.backlog {
		take(j.req)
	}
	for _, r := range e.running {
		take(r)
	}
	for _, r := range e.preempted {
		take(r)
	}
	for _, r := range e.loading {
		take(r)
	}
	e.waiting, e.backlog, e.running, e.runningKV = nil, nil, nil, nil
	e.preempted, e.loading = nil, nil

	// Reload-deferred arrivals were never registered; cancelling their
	// delivery events is enough to orphan them.
	for _, d := range e.deferred {
		e.clock.Cancel(d.handle)
		d.req.CancelConsumption(e.clock)
		orphans = append(orphans, d.req)
	}
	e.deferred = nil
	e.pendingInjects = 0

	pinsLost, mirrorsLost = e.mem.Crash()

	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID < orphans[j].ID })
	e.notifyLoad()
	return orphans, pinsLost, mirrorsLost
}
