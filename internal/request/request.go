// Package request models the lifecycle of one streaming generation request:
// its phase transitions (queued, running, preempted, loading, finished), its
// client-side token buffer, and the client consumption process that drains
// the buffer at the request's required rate. The buffer dynamics here are
// the substrate for both the TokenFlow scheduler (buffer-aware priorities)
// and the QoS metrics (stalls, token usefulness).
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

	// FirstTokenAt is when the first output token was generated (valid
	// once Generated > 0). FinishedAt is when the last token was generated.
	FirstTokenAt simclock.Time
	FinishedAt   simclock.Time

	// TokenTimes and BufferAtGen record, per output token, its generation
	// timestamp and the buffer occupancy immediately after it was appended
	// (the B_{i,j} of the paper's QoS definition).
	TokenTimes  []simclock.Time
	BufferAtGen []int32

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
// serves one goroutine: the cluster keeps one per shard.
type Arena struct {
	slab []Request
}

// arenaSlab is the number of Requests allocated per slab. At ~300 B per
// Request a slab is ~150 KiB: big enough to make the allocator cost per
// request negligible, small enough not to strand memory on tiny runs.
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

// Stalled reports whether the client is currently blocked on an empty
// buffer.
func (r *Request) Stalled() bool {
	r.settle()
	return r.waitingForToken
}

// DeliverTokens appends n freshly generated tokens at time now — the
// clock's current instant — recording timestamps and buffer occupancies,
// and starts the client reading at the first token or resumes a stalled
// client. Once the last token is delivered, the clock gets the request's
// end-of-reading event.
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
	if r.TokenTimes == nil {
		// The final sizes are known up front (one entry per output token),
		// so the per-token records are allocated exactly once at first
		// delivery — never grown — and only for requests actually served.
		r.TokenTimes = make([]simclock.Time, 0, r.OutputLen)
		r.BufferAtGen = make([]int32, 0, r.OutputLen)
	}
	for i := 0; i < n; i++ {
		r.Generated++
		r.TokenTimes = append(r.TokenTimes, now)
		r.BufferAtGen = append(r.BufferAtGen, int32(r.Generated-r.consumed))
	}
	if first {
		r.FirstTokenAt = now
	}
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
	if iv > 0 {
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

// InstantConsumer reports whether the request drains its buffer instantly.
func (r *Request) InstantConsumer() bool { return r.Rate <= 0 }

// ResetForRetry rewinds the request to a fresh queued state after its
// serving replica crashed: all generation progress, per-token records, and
// client-buffer state are discarded (the partial output died with the
// replica) and reading is cancelled (CancelConsumption). Arrival is
// preserved — the retried request's TTFT spans the crash and the backoff,
// which is exactly the damage the chaos experiments measure — and Retries
// increments.
func (r *Request) ResetForRetry(clock *simclock.Clock) {
	r.CancelConsumption(clock)
	r.State = StateQueued
	r.CachedPrompt = 0
	r.PrefilledTokens = 0
	r.Generated = 0
	r.consumed = 0
	r.FirstTokenAt = 0
	r.FinishedAt = 0
	r.TokenTimes = nil
	r.BufferAtGen = nil
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
