// Package simclock provides the discrete-event simulation core used by the
// TokenFlow serving simulator: a virtual clock and a cancellable event queue
// with deterministic FIFO ordering for simultaneous events.
//
// All simulation components share one Clock. Time is virtual: it only
// advances when events are processed, so simulations are exactly
// reproducible for a given workload seed regardless of host speed.
//
// The event queue is allocation-free in steady state: fired and cancelled
// events return to a per-clock free list and are recycled by the next At or
// After. Handles are generation-counted, so holding a Handle past its
// event's firing is always safe — Cancel and Pending on a stale handle are
// no-ops rather than acting on whatever event reused the slot.
package simclock

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation.
type Time int64

// Zero is the origin of simulation time.
const Zero Time = 0

// Forever is a sentinel time later than any event a simulation schedules.
const Forever Time = Time(1<<63 - 1)

// FromSeconds converts a duration in seconds to a Time offset from Zero.
func FromSeconds(s float64) Time { return Time(s * float64(time.Second)) }

// Seconds reports t as a floating-point number of seconds since Zero.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Add returns t shifted later by d. Negative d shifts earlier.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts a floating-point number of seconds to a time.Duration.
func Duration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// String formats t as seconds with millisecond precision, e.g. "12.345s".
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// event is one scheduled callback slot. Slots are owned by the clock and
// recycled through a free list; external code only ever sees Handles.
type event struct {
	at       Time
	seq      uint64 // insertion order; breaks ties deterministically
	gen      uint64 // bumped on recycle; stale Handles fail the gen check
	index    int    // heap index, -1 when not queued
	fn       func(now Time)
	canceled bool
}

// Handle identifies a scheduled event. The zero Handle is valid and refers
// to nothing: Pending reports false and Cancel is a no-op. A Handle stays
// safe to use after its event fires or is cancelled — the underlying slot
// is generation-counted, so a stale Handle can never affect an event that
// reused it.
type Handle struct {
	ev  *event
	gen uint64
}

// At reports the time the event is scheduled to fire, or Forever for a
// stale or zero handle.
func (h Handle) At() Time {
	if !h.Pending() {
		return Forever
	}
	return h.ev.at
}

// Pending reports whether the handle's event is still queued and not
// cancelled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Clock is a virtual clock with an event queue. The zero value is not
// usable; call New.
type Clock struct {
	now Time
	pq  eventHeap
	seq uint64
	// processed counts events that have fired (not cancelled ones).
	processed uint64
	// canceled counts queue slots holding lazily-cancelled events; when the
	// fraction grows past compactAt the heap is rebuilt without them.
	canceled int
	free     []*event
}

// compactAt bounds how much of the heap cancelled events may occupy before
// a compaction sweep reclaims them, so long-horizon cancels (drain timers,
// end-of-reading events of torn-down requests) cannot bloat the queue.
const compactAt = 64

// New returns a Clock positioned at time Zero with an empty queue.
func New() *Clock {
	return &Clock{}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Len reports the number of pending (non-cancelled) events.
func (c *Clock) Len() int { return len(c.pq) - c.canceled }

// Processed reports how many events have fired since the clock was created.
func (c *Clock) Processed() uint64 { return c.processed }

// alloc takes an event slot from the free list, or allocates one.
func (c *Clock) alloc() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &event{index: -1}
}

// recycle retires a fired or swept event slot: the generation bump
// invalidates every outstanding Handle before the slot is reused.
func (c *Clock) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.canceled = false
	e.index = -1
	c.free = append(c.free, e)
}

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: that is always a simulation logic bug, and silently clamping
// would mask it.
func (c *Clock) At(at Time, fn func(now Time)) Handle {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	if at < c.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", at, c.now))
	}
	e := c.alloc()
	e.at = at
	e.seq = c.seq
	e.fn = fn
	c.seq++
	heap.Push(&c.pq, e)
	return Handle{ev: e, gen: e.gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (c *Clock) After(d time.Duration, fn func(now Time)) Handle {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// Cancel removes a pending event from the queue. Cancelling a fired,
// already-cancelled, or zero handle is a no-op. The cancel itself is O(1):
// the slot is marked dead and swept either when it surfaces at the top of
// the heap or by the next compaction, whichever comes first.
func (c *Clock) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	h.ev.canceled = true
	c.canceled++
	if c.canceled >= compactAt && c.canceled*2 > len(c.pq) {
		c.compact()
	}
}

// compact rebuilds the heap without cancelled events, recycling their slots.
func (c *Clock) compact() {
	live := c.pq[:0]
	for _, e := range c.pq {
		if e.canceled {
			c.recycle(e)
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < len(c.pq); i++ {
		c.pq[i] = nil
	}
	c.pq = live
	c.canceled = 0
	heap.Init(&c.pq)
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback, and returns its handle. If the event already fired or was
// cancelled, Reschedule panics — the callback is gone with the slot, so
// the caller must schedule afresh with At.
func (c *Clock) Reschedule(h Handle, at Time) Handle {
	if at < c.now {
		panic(fmt.Sprintf("simclock: rescheduling event at %v before now %v", at, c.now))
	}
	if !h.Pending() {
		panic("simclock: rescheduling a fired or cancelled event")
	}
	e := h.ev
	e.at = at
	e.seq = c.seq
	c.seq++
	heap.Fix(&c.pq, e.index)
	return h
}

// Peek reports the time of the next pending event, or Forever if the queue
// is empty. Cancelled events surfacing at the top are swept as a side
// effect, so the reported time is always that of a live event.
func (c *Clock) Peek() Time {
	for len(c.pq) > 0 {
		top := c.pq[0]
		if !top.canceled {
			return top.at
		}
		heap.Pop(&c.pq)
		c.canceled--
		c.recycle(top)
	}
	return Forever
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports false when the queue is empty.
func (c *Clock) Step() bool {
	for len(c.pq) > 0 {
		e := heap.Pop(&c.pq).(*event)
		e.index = -1
		if e.canceled {
			c.canceled--
			c.recycle(e)
			continue
		}
		c.now = e.at
		c.processed++
		fn := e.fn
		c.recycle(e)
		fn(c.now)
		return true
	}
	return false
}

// AdvanceTo moves the clock forward to t without firing anything. It
// panics when t precedes the current time or when a pending event lies
// before t — skipping scheduled work is always a simulation bug. The
// sharded cluster runner uses this to align a drained shard clock with the
// barrier instant before cross-shard work (injects, migrations) lands.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: advancing to %v before now %v", t, c.now))
	}
	if next := c.Peek(); next < t {
		panic(fmt.Sprintf("simclock: advancing to %v past pending event at %v", t, next))
	}
	c.now = t
}

// RunUntil fires events in order until the queue is exhausted or the next
// event lies strictly after deadline. The clock ends at the later of its
// current time and deadline (but never moves backwards).
func (c *Clock) RunUntil(deadline Time) {
	for {
		next := c.Peek()
		if next > deadline {
			break
		}
		c.Step()
	}
	if deadline > c.now && deadline != Forever {
		c.now = deadline
	}
}

// Run fires events until none remain.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// eventHeap orders events by (time, insertion sequence), so events scheduled
// for the same instant fire in the order they were scheduled.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
