// Package request models the lifecycle of one streaming generation request:
// its phase transitions (queued, running, preempted, loading, finished), its
// client-side token buffer, and the client consumption process that drains
// the buffer at the request's required rate. The buffer dynamics here are
// the substrate for both the TokenFlow scheduler (buffer-aware priorities)
// and the QoS metrics (stalls, token usefulness).
//
// A request's memory does not grow with its output: delivery folds each
// token into running totals (the weighted Effective count, the last token
// instant) instead of storing per-token records. Callers that need a whole
// per-token history attach a Timeline before the first delivery.
//
// Client reading is computed in closed form rather than simulated token by
// token. The client reads its first token the instant it arrives and then
// one token per read tick, every interval = simclock.Duration(1/Rate) — a
// fixed integer-nanosecond grid. A tick that finds the buffer empty starts
// a stall; the delivery that ends it is read at once and restarts the grid
// from that instant. Because the grid is exact, every tick at or before an
// instant is applied in O(1), and each method that reads or changes the
// reading state first catches it up to the driving clock's instant. Tie
// rule: a read tick at exactly a delivery or cancel instant is applied
// before it. The clock carries one no-op end-of-reading event per request,
// scheduled when generation completes at the instant of the final read, so
// a run's end instant and time-out still cover every read.
package request

import (
	"fmt"
	"math"
	"time"

	"repro/internal/simclock"
)

// State is a request's lifecycle phase.
type State int

const (
	// StateQueued: arrived, never prefilled; waiting for admission.
	StateQueued State = iota
	// StateRunning: KV resident on GPU, member of the running batch.
	StateRunning
	// StatePreempted: previously running; KV offloaded to host memory or
	// discarded, waiting to be resumed.
	StatePreempted
	// StateLoading: resume in progress (KV transferring host-to-device or
	// recompute prefill queued).
	StateLoading
	// StateFinished: all output tokens generated.
	StateFinished
)

var stateNames = [...]string{"queued", "running", "preempted", "loading", "finished"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Request is one streaming generation request and its runtime bookkeeping.
// Fields are managed by the serving engine; schedulers read them through
// the sched.View. A Request is not safe for concurrent use: the simulator
// is single-threaded by design.
type Request struct {
	ID      int
	Arrival simclock.Time

	// PromptLen and OutputLen are the prompt size and the total number of
	// output tokens the request will generate.
	PromptLen int
	OutputLen int

	// Rate is the client's token consumption rate in tokens/second
	// (reading or listening speed). Rate <= 0 means the client consumes
	// tokens instantly (e.g. an agent), so the buffer never accumulates.
	Rate float64

	// Session and Turn identify the multi-turn conversation this request
	// belongs to (Session 0 = stateless). Turns of one session share a
	// growing prompt prefix; routers use this for KV affinity.
	Session int
	Turn    int

	// CachedPrompt is the number of leading prompt tokens whose KV was
	// already resident on the serving replica at admission (a prefix-cache
	// hit). Prefill skips computing them; memory is still allocated for the
	// full prompt. Always < PromptLen.
	CachedPrompt int

	State State

	// PrefilledTokens tracks chunked-prefill progress through the prompt.
	// The prompt is fully processed when PrefilledTokens == PromptLen.
	PrefilledTokens int

	// Generated counts output tokens produced so far; consumed counts
	// tokens the client has read (read it through Consumed, which catches
	// reading up first). Buffer occupancy = Generated - Consumed().
	Generated int
	consumed  int

	// FirstTokenAt is when the first output token was generated and
	// LastTokenAt when the latest one was (both valid once Generated > 0,
	// zero before). FinishedAt is when the final output token was
	// generated, zero until then.
	FirstTokenAt simclock.Time
	LastTokenAt  simclock.Time
	FinishedAt   simclock.Time

	// Effective is the running sum, in token order, of TokenWeight over
	// every generated token's buffer occupancy B_{i,j} (the buffer right
	// after the token was appended): the request's effective tokens of
	// §7.1.3.
	Effective float64

	// Timeline, when a caller attached one before the first delivery,
	// records every token's generation instant and buffer occupancy.
	// Serving paths leave it nil.
	Timeline *Timeline

	// Stall accounting: RebufferTotal accumulates time the client spent
	// waiting on an empty buffer after starting to read. A stall is added
	// when the delivery that ends it arrives.
	RebufferTotal time.Duration

	// Reading state, caught up lazily (see the package comment). clock is
	// the clock driving an unfinished read: nil before the first token,
	// for instant consumers, once every token is read, and after
	// CancelConsumption. While waitingForToken (a stall), tick is the read
	// tick that found the buffer empty; otherwise it is the next read
	// tick. endEvent is the pending end-of-reading event.
	waitingForToken bool
	tick            simclock.Time
	clock           *simclock.Clock
	endEvent        simclock.Handle

	// Preemptions and Resumes count context-switch cycles; LoadedResumes
	// counts resumes served from host memory (vs recompute).
	Preemptions   int
	Resumes       int
	LoadedResumes int

	// Retries counts how many times the request re-entered the gateway
	// after its serving replica crashed. Each retry resets generation
	// progress (the dead replica's partial output is gone) but keeps
	// Arrival, so TTFT stays honest about the full client wait.
	Retries int
}

// New returns a queued request. OutputLen must be at least 1.
func New(id int, arrival simclock.Time, promptLen, outputLen int, rate float64) *Request {
	r := &Request{}
	r.init(id, arrival, promptLen, outputLen, rate)
	return r
}

func (r *Request) init(id int, arrival simclock.Time, promptLen, outputLen int, rate float64) {
	if promptLen < 1 || outputLen < 1 {
		panic(fmt.Sprintf("request %d: prompt %d / output %d must be >= 1", id, promptLen, outputLen))
	}
	r.ID = id
	r.Arrival = arrival
	r.PromptLen = promptLen
	r.OutputLen = outputLen
	r.Rate = rate
	r.State = StateQueued
}

// Arena batch-allocates Requests in fixed-size slabs, cutting the
// per-arrival allocator round-trip on million-request traces. Requests
// live for the whole run (results reference them), so slots are never
// reused — the arena amortizes allocation, it does not pool. One Arena
// serves one goroutine: the cluster keeps one per shard, and both the
// round-robin fast path and routed runs (arrivals and the gateway) take
// their requests from it.
type Arena struct {
	slab []Request
}

// arenaSlab is the number of Requests allocated per slab. At 216 B per
// Request (unsafe.Sizeof on 64-bit platforms) a slab is ~108 KiB: big
// enough to make the allocator cost per request negligible, small enough
// not to strand memory on tiny runs.
const arenaSlab = 512

// New carves a queued request out of the arena's current slab.
func (a *Arena) New(id int, arrival simclock.Time, promptLen, outputLen int, rate float64) *Request {
	if len(a.slab) == 0 {
		a.slab = make([]Request, arenaSlab)
	}
	r := &a.slab[0]
	a.slab = a.slab[1:]
	r.init(id, arrival, promptLen, outputLen, rate)
	return r
}

// ContextLen reports the tokens of KV context the request occupies when
// resident: prefilled prompt tokens plus generated output tokens.
func (r *Request) ContextLen() int { return r.PrefilledTokens + r.Generated }

// FullContextLen reports the context length at completion, used for
// capacity reservations.
func (r *Request) FullContextLen() int { return r.PromptLen + r.OutputLen }

// Consumed reports how many tokens the client has read by the driving
// clock's current instant.
func (r *Request) Consumed() int {
	r.settle()
	return r.consumed
}

// BufferLen reports the client-side buffer occupancy in tokens.
func (r *Request) BufferLen() int { return r.Generated - r.Consumed() }

// BufferLenAt reports the client-side buffer occupancy as of t, catching
// reading up to t: BufferLen for work applied at its own instant t after
// the clock has moved on (a fused decode run's write-through launch). No
// delivery may come before t afterwards.
func (r *Request) BufferLenAt(t simclock.Time) int {
	if r.clock != nil {
		r.catchUp(t)
	}
	return r.Generated - r.consumed
}

// BufferSeconds reports how long the current buffer sustains playback at
// the request's consumption rate. Infinite-rate (Rate<=0) clients always
// report zero.
func (r *Request) BufferSeconds() float64 {
	if r.Rate <= 0 {
		return 0
	}
	return float64(r.BufferLen()) / r.Rate
}

// GenerationDone reports whether all output tokens have been produced.
func (r *Request) GenerationDone() bool { return r.Generated >= r.OutputLen }

// ConsumptionDone reports whether the client has read every token.
func (r *Request) ConsumptionDone() bool { return r.Consumed() >= r.OutputLen }

// PrefillDone reports whether the prompt is fully processed.
func (r *Request) PrefillDone() bool { return r.PrefilledTokens >= r.PromptLen }

// RemainingOutput reports how many output tokens are still to generate.
func (r *Request) RemainingOutput() int { return r.OutputLen - r.Generated }

// TTFT reports the time-to-first-token. It is only meaningful once the
// first token exists; callers gate on Generated > 0.
func (r *Request) TTFT() time.Duration { return r.FirstTokenAt.Sub(r.Arrival) }

// Makespan reports when a population finished: the latest FinishedAt or
// last token time across reqs, or fallback (the final clock reading) when
// no request generated anything. The engine and the cluster both measure
// their runs with it, so the two makespans follow one rule.
func Makespan(reqs []*Request, fallback simclock.Time) simclock.Time {
	var end simclock.Time
	for _, r := range reqs {
		end = max(end, r.FinishedAt, r.LastTokenAt)
	}
	if end == 0 {
		return fallback
	}
	return end
}

// Stalled reports whether the client is currently blocked on an empty
// buffer.
func (r *Request) Stalled() bool {
	r.settle()
	return r.waitingForToken
}

// DeliverTokens appends n freshly generated tokens at time now — the
// clock's current instant — adding each token's weight to Effective and
// moving LastTokenAt to now, and starts the client reading at the first
// token or resumes a stalled client. Once the last token is delivered, the
// clock gets the request's end-of-reading event. It allocates nothing
// unless a Timeline is attached.
func (r *Request) DeliverTokens(clock *simclock.Clock, now simclock.Time, n int) {
	if n <= 0 {
		return
	}
	if r.Generated+n > r.OutputLen {
		panic(fmt.Sprintf("request %d: delivering %d tokens past output length %d (have %d)",
			r.ID, n, r.OutputLen, r.Generated))
	}
	if r.clock != nil {
		r.catchUp(now)
	}
	first := r.Generated == 0
	for i := 0; i < n; i++ {
		r.Generated++
		buf := int32(r.Generated - r.consumed)
		r.Effective += TokenWeight(int(buf), r.OutputLen)
		if r.Timeline != nil {
			r.Timeline.record(now, buf, r.OutputLen)
		}
	}
	if first {
		r.FirstTokenAt = now
	}
	r.LastTokenAt = now
	if r.Rate <= 0 {
		// Instant consumer: drain everything as it arrives.
		r.consumed = r.Generated
	} else if first {
		// The user starts reading at t_ttft (the paper's model).
		r.clock = clock
		r.readAt(now)
	} else if r.waitingForToken {
		// Client was mid-stall; it reads the new token immediately.
		r.RebufferTotal += now.Sub(r.tick)
		r.waitingForToken = false
		r.readAt(now)
	}
	if r.GenerationDone() {
		r.FinishedAt = now
		if r.clock != nil {
			// No further stall is possible: the last read is the one that
			// drains the buffer at one token per tick from here.
			last := r.tick + simclock.Time(r.OutputLen-r.consumed-1)*simclock.Time(r.interval())
			r.endEvent = clock.At(last, endOfReading)
		}
	}
}

// endOfReading is the end-of-reading event's callback. It has nothing to
// do — the reads are computed — and, being a package-level func, costs no
// allocation to schedule.
func endOfReading(simclock.Time) {}

// interval is the read-tick spacing.
func (r *Request) interval() time.Duration { return simclock.Duration(1 / r.Rate) }

// readAt reads one buffered token at now and puts the next tick one
// interval later; the last read ends the reading process.
func (r *Request) readAt(now simclock.Time) {
	r.consumed++
	if r.consumed >= r.OutputLen {
		r.clock = nil
		return
	}
	r.tick = now.Add(r.interval())
}

// settle catches reading up to the driving clock's current instant.
func (r *Request) settle() {
	if r.clock != nil {
		r.catchUp(r.clock.Now())
	}
}

// catchUp applies every read tick at or before now in O(1). The ticks due
// are tick, tick+interval, ..., at most now; each reads one buffered token
// until the buffer runs dry, and the first tick that finds it empty starts
// a stall at that tick's instant.
func (r *Request) catchUp(now simclock.Time) {
	if r.waitingForToken || r.tick > now {
		return
	}
	iv := simclock.Time(r.interval())
	buffered := r.Generated - r.consumed
	due := buffered + 1
	switch {
	case now-r.tick < iv:
		// The next tick is due and the one after is not: the quotient
		// below would be 0.
		due = min(due, 1)
	case iv > 0:
		if d := int((now-r.tick)/iv) + 1; d < due {
			due = d
		}
	}
	if due <= buffered {
		r.consumed += due
		r.tick += simclock.Time(due) * iv
	} else {
		r.consumed = r.Generated
		r.waitingForToken = true
		r.tick += simclock.Time(buffered) * iv
	}
	if r.consumed >= r.OutputLen {
		r.clock = nil
		r.waitingForToken = false
	}
}

// ReadTicks catches reading up to t (no delivery may come before t after
// this) and reports the client's latest read tick at or before t and its
// next one after t — Zero and Forever when there is none: reading not
// started, done or cancelled, or no next tick while stalled. Reads are not
// clock events, so whatever drives the clock folds these instants in where
// the run ends or times out. The latest tick may instead be the delivery
// instant the client last read at, which its clock has passed anyway.
func (r *Request) ReadTicks(t simclock.Time) (last, next simclock.Time) {
	if r.clock != nil {
		r.catchUp(t)
	}
	switch {
	case r.clock == nil:
		return simclock.Zero, simclock.Forever
	case r.waitingForToken:
		return r.tick, simclock.Forever
	default:
		return r.tick - simclock.Time(r.interval()), r.tick
	}
}

// BufferBelowAt catches reading up to t, like ReadTicks, and reports the
// first instant at or after t at which BufferSeconds() < sec holds if no
// further token is delivered: t when it holds already, else the read tick
// that takes the buffer there. It reports Forever when no read is left to
// change the buffer — an instant consumer, or reading not started, done or
// cancelled — and when even an empty buffer is not below sec. The test is
// BufferSeconds's own float division, so the instant is exact. Later
// deliveries only raise the buffer and leave a reading client's tick grid
// in place, so they can only postpone the instant.
func (r *Request) BufferBelowAt(t simclock.Time, sec float64) simclock.Time {
	if r.clock == nil {
		return simclock.Forever
	}
	r.catchUp(t)
	if r.clock == nil {
		return simclock.Forever
	}
	below := func(tokens int) bool { return float64(tokens)/r.Rate < sec }
	buffered := r.Generated - r.consumed
	switch {
	case below(buffered):
		return t
	case !below(0):
		return simclock.Forever
	}
	// m is the largest buffer that tests below sec: the closed form
	// ⌈sec·Rate⌉−1, corrected for rounding by the test itself.
	m := min(max(int(math.Ceil(sec*r.Rate))-1, 0), buffered-1)
	for m+1 < buffered && below(m+1) {
		m++
	}
	for !below(m) {
		m--
	}
	// The buffer reaches m after buffered−m reads; the first is at tick.
	return r.tick + simclock.Time(buffered-m-1)*simclock.Time(r.interval())
}

// CancelConsumption catches reading up to the clock's current instant,
// then stops it there and cancels the end-of-reading event; used when a
// simulation tears down or a replica crashes. Afterwards the request holds
// no reference to the clock. The handle is generation-checked, so this is
// safe even when the event already fired and its slot was recycled.
func (r *Request) CancelConsumption(clock *simclock.Clock) {
	r.settle()
	r.clock = nil
	clock.Cancel(r.endEvent)
	r.endEvent = simclock.Handle{}
}

// ResetForRetry rewinds the request to a fresh queued state after its
// serving replica crashed: all generation progress, the running token
// totals, an attached Timeline's records, and client-buffer state are
// discarded (the partial output died with the replica) and reading is
// cancelled (CancelConsumption). Arrival is preserved — the retried
// request's TTFT spans the crash and the backoff, which is exactly the
// damage the chaos experiments measure — and Retries increments.
func (r *Request) ResetForRetry(clock *simclock.Clock) {
	r.CancelConsumption(clock)
	r.State = StateQueued
	r.CachedPrompt = 0
	r.PrefilledTokens = 0
	r.Generated = 0
	r.consumed = 0
	r.FirstTokenAt = 0
	r.LastTokenAt = 0
	r.FinishedAt = 0
	r.Effective = 0
	if r.Timeline != nil {
		r.Timeline.reset()
	}
	r.RebufferTotal = 0
	r.waitingForToken = false
	r.tick = 0
	r.Preemptions = 0
	r.Resumes = 0
	r.LoadedResumes = 0
	r.Retries++
}

func (r *Request) String() string {
	return fmt.Sprintf("req%d[%s p=%d o=%d r=%.0f gen=%d buf=%d]",
		r.ID, r.State, r.PromptLen, r.OutputLen, r.Rate, r.Generated, r.BufferLen())
}
