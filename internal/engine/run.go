package engine

import (
	"time"

	"repro/internal/kvcache"
	"repro/internal/simclock"
)

// maxRun bounds how many decode iterations one fused run holds, so the
// run's plan fits the quietRun the engine allocates once, at its first
// run, and a run allocates nothing. A longer quiet stretch is several runs
// back to back: a run's last boundary is a real completion, which is
// exactly the unfused loop's.
const maxRun = 64

// runStep is iteration i of a run's plan.
type runStep struct {
	// at is the completion instant of iteration i (step 0: the launch of
	// the first); raw is its modelled duration before any brownout
	// multiplier, the write-through budget of its launch.
	at  simclock.Time
	raw time.Duration
	// grow counts the pages the batch grows at completion i (planning
	// scratch).
	grow int32
}

// quietRun is the engine's fused run of quiet decode iterations (see the
// package comment): iterations 1..end of one decode batch, the first
// launched at steps[0].at, whose completions 1..end-1 are applied lazily
// and whose completion end is the run's one clock event (iterHandle).
type quietRun struct {
	steps [maxRun + 1]runStep
	// k is the last completion applied; the run is open while k+1 < end.
	k, end int
	// tag is the sequence number the run reserved at its launch, where the
	// unfused loop schedules the first completion.
	tag uint64
	// fired is the run key of the last run event that fired (zero before
	// any): an event writing the engine at its instant must be ordered
	// against it.
	fired simclock.Key
}

// open reports whether completions remain to apply lazily; a nil run (an
// engine that never ran one) has none.
func (q *quietRun) open() bool { return q != nil && q.k+1 < q.end }

// close ends the run without its event: none of its completions remain.
func (q *quietRun) close() {
	if q != nil {
		q.k, q.end = 0, 0
	}
}

// key is completion i's place in the firing order: (t_i, t_(i-1)) with
// the run's tag. The first completion's key is the exact one the unfused
// loop gives it; the later ones are run keys (simclock.Key).
func (q *quietRun) key(i int) simclock.Key {
	return simclock.Key{At: q.steps[i].at, Sched: q.steps[i-1].at, Seq: q.tag, Run: i > 1}
}

// planRun plans the run of the decode iteration launching at now with
// modelled duration raw and launched duration dur, over the kept batch of
// n requests and context ctx. It returns the run's last iteration: the
// first whose completion is not a quiet continuation — a batch member
// finishes, the page growth outgrows the free pool, or the boundary
// reaches quietUntil — or maxRun. 1 means no run. A run needs the unfused
// hook off, a launch that is not nested inside a decode step, no prefill
// waiting, and a KV policy that never stalls an iteration boundary on
// write-through traffic.
func (e *Engine) planRun(now simclock.Time, raw, dur time.Duration, n int, ctx int64) int {
	kv := e.cfg.KV
	if e.unfused || e.advancing || len(e.backlog) > 0 ||
		kv.WriteThrough && !kv.ChunkedWriting || now.Add(dur) >= e.quietUntil {
		return 1
	}
	last := maxRun
	for _, r := range e.batchBuf {
		last = min(last, r.OutputLen-r.Generated)
	}
	if last < 2 {
		return 1
	}
	// Page growth: a member with room tokens left in its pages grows at
	// completions room+1, room+1+PageTokens, ...; the first completion
	// whose cumulative growth exceeds the free pool must reclaim, so it is
	// the last of the run.
	q := e.run
	if q == nil {
		q = new(quietRun)
		e.run = q
	}
	st := q.steps[:last+1]
	for i := range st {
		st[i].grow = 0
	}
	for _, h := range e.batchKV {
		room := e.mem.PageRoom(h)
		if room < 0 {
			return 1
		}
		for i := room + 1; i <= last; i += kvcache.PageTokens {
			st[i].grow++
		}
	}
	free, grown := e.mem.FreePages(), 0
	for i := 1; i <= last; i++ {
		if grown += int(st[i].grow); grown > free {
			last = i
			break
		}
	}
	st[0].at, st[1].at, st[1].raw = now, now.Add(dur), raw
	end := 1
	for end < last && st[end].at < e.quietUntil {
		ctx += int64(n)
		raw := e.cost.DecodeStepTime(n, ctx)
		dur := raw
		if e.slowdown > 1 {
			dur = time.Duration(float64(dur) * e.slowdown)
		}
		end++
		st[end].raw = raw
		st[end].at = st[end-1].at.Add(dur)
	}
	return end
}

// launchDecode schedules the completion of the decode iteration launched
// at now with duration dur (raw before any brownout multiplier): as a
// fused run's clock event when planRun finds a run, else as the unfused
// loop does.
func (e *Engine) launchDecode(now simclock.Time, raw, dur time.Duration) {
	end := e.planRun(now, raw, dur, len(e.batchBuf), e.batchCtx)
	if end == 1 {
		e.iterHandle = e.clock.After(dur, e.iterDoneFn)
		return
	}
	q := e.run
	q.k, q.end, q.tag = 0, end, e.clock.Reserve().Seq
	e.iterHandle = e.clock.AtKey(q.key(end), e.iterDoneFn)
}

// applyNext applies the run's next completion at its own instant, as the
// unfused loop's completion event and the quiet kick after it would: the
// batch decodes, the latency estimate observes the iteration, and the
// kept batch relaunches with its write-through booked as of that instant.
// Nothing it calls touches the run: a run's decode step finishes no
// request and grows no page by reclaim.
func (e *Engine) applyNext() {
	q := e.run
	i := q.k + 1
	t := q.steps[i].at
	e.decodeIters++
	e.advanceDecode(e.batchBuf, e.batchKV, t)
	e.observeDecode(e.iterDur)
	e.mem.SyncAsOf(q.key(i), q.steps[i+1].raw)
	e.iterations++
	e.iterDur = q.steps[i+1].at.Sub(t)
	q.k = i
}

// settle applies every completion of the run whose event would have
// fired by the clock's position.
func (e *Engine) settle() {
	q := e.run
	now := e.clock.Now()
	for q.open() {
		if t := q.steps[q.k+1].at; t > now || t == now && !e.clock.Fired(q.key(q.k+1)) {
			return
		}
		e.applyNext()
	}
}

// endRun is the run's clock event, before the completion it fires: every
// completion before it is applied, and the run closes.
func (e *Engine) endRun() {
	q := e.run
	if q == nil {
		return
	}
	for q.open() {
		e.applyNext()
	}
	if q.end > 1 {
		q.fired = q.key(q.end)
	}
	q.close()
}

// touch is the KV manager's Touch hook and the first step of every
// engine entry point that reads or writes what a run changes: it settles
// the run to the clock's position and, before a write, truncates it to
// the iteration in flight, whose completion becomes the run's clock event
// so that the next boundary runs the whole loop again.
func (e *Engine) touch(write bool) {
	q := e.run
	if q == nil {
		return
	}
	if write && q.fired.At == e.clock.Now() {
		// The run's event fired at this instant, ahead of the event writing
		// now (its tag is the lower number): Fired panics when the unfused
		// loop could have ordered the two either way. Reads are left out:
		// the ones made between events (a run's drain, Collect) have no
		// event to order, and an event that changes the engine writes.
		e.clock.Fired(q.fired)
	}
	if !q.open() {
		return
	}
	e.settle()
	if !write || !q.open() {
		return
	}
	q.end = q.k + 1
	e.clock.Cancel(e.iterHandle)
	e.iterHandle = e.clock.AtKey(q.key(q.end), e.iterDoneFn)
}

// SettleUntil applies the run's completions due at or before deadline,
// as the clock would have fired their events by a run's deadline, and
// reports the last one's instant (Zero when none): the cluster moves the
// shard clock on to it, where that event would have left the clock.
func (e *Engine) SettleUntil(deadline simclock.Time) simclock.Time {
	q := e.run
	var last simclock.Time
	for q.open() && q.steps[q.k+1].at <= deadline {
		last = q.steps[q.k+1].at
		e.applyNext()
	}
	return last
}
