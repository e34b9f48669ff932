// Package simclock provides the discrete-event simulation core used by the
// TokenFlow serving simulator: a virtual clock and a cancellable event queue
// with deterministic FIFO ordering for simultaneous events.
//
// All simulation components share one Clock. Time is virtual: it only
// advances when events are processed, so simulations are exactly
// reproducible for a given workload seed regardless of host speed.
//
// Every event carries the clock's next sequence number when it is
// scheduled, and events fire in (time, sequence) order: by time, and at an
// equal instant in the order they were scheduled. The order is strict and
// total, so the firing sequence is fully determined by the calls made.
//
// The queue is a 4-ary min-heap of inline (time, sequence, slot) entries,
// compared without interface calls; a 4-ary heap is half as deep as a
// binary one, which matters at the ~50k pending events of a large cluster.
// Cancellation is lazy: Cancel marks the slot, which is swept when it
// surfaces at the top, or by a compaction that filters the heap and
// re-heapifies it in place once cancelled slots make up most of it.
//
// The queue is allocation-free in steady state: fired and cancelled
// events return to a per-clock free list and are recycled by the next At or
// After. Handles are generation-counted, so holding a Handle past its
// event's firing is always safe — Cancel and Pending on a stale handle are
// no-ops rather than acting on whatever event reused the slot.
//
// A workload's arrivals do not go on the heap. Stream opens an arrival
// cursor over n pre-sorted instants that holds only the next arrival, so
// priming a run costs O(1) queue space instead of one heap entry and one
// closure per arrival. Stream reserves the sequence block [s, s+n) when it
// is called, and arrival k competes with the heap top as (at(k), s+k). The
// tie rule therefore matches scheduling each arrival with At in one loop:
// an event scheduled before the stream opened fires before an arrival at
// the same instant, and one scheduled after it fires after.
//
// Reserve takes a sequence number without queueing anything, for work
// whose only effect is bookkeeping that its readers can apply late (the
// KV manager's write-through landings). Fired then reports whether an
// event at the reserved key would already have fired, so the readers see
// the tie order the event would have had, without its cost.
//
// Every event also records its scheduling instant, the clock's time when
// At ran. Sequence numbers are handed out in time order, so the (time,
// sequence) order is the same as the (time, scheduling instant, sequence)
// order, and the heap compares keys in that longer form (Key). That lets
// work applied lazily take its place without a sequence number: the
// engine's fused decode runs (internal/engine) apply iteration k, due at
// t_k and launched at t_(k-1), as of the key (t_k, t_(k-1)), and schedule
// the run's one clock event with AtKey at the key of its last iteration,
// tagged with the sequence number the run reserved at its launch. The
// scheduling instant orders such a key against every event at the same
// instant except one scheduled at the same instant too: that tie is
// unsplittable, and Fired panics on it, as AdvanceTo does when asked to
// skip work. Keys of one run are the exception: an item a run booked at an
// instant precedes the iteration the run launched there. Step checks no
// ties: two events at one key order only where one reads the other's
// effects (a fused run's engine checks its own), and events of engines
// sharing a clock never do.
package simclock

import (
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

// Before is a scheduling instant earlier than any event's: the position
// AdvanceTo leaves, ahead of every event at its instant.
const Before Time = -1 << 63

// Key is a place in the firing order: the instant At, the instant Sched
// it was scheduled at, and its sequence number Seq. A run key (Run) is
// lazily applied work or an event scheduled with AtKey: Seq is then the
// tag its run reserved at its launch, which names the run but says nothing
// about the order among other work scheduled at Sched.
type Key struct {
	At, Sched Time
	Seq       uint64
	Run       bool
}

// FiredBy reports whether work at key k comes before the position pos:
// by instant, then scheduling instant, then sequence number. At a tie in
// both instants a run key comes first only against its own run's position
// (same tag); any other tie with a run key is unsplittable and panics.
func (k Key) FiredBy(pos Key) bool {
	if k.At != pos.At {
		return k.At < pos.At
	}
	if k.Sched != pos.Sched {
		return k.Sched < pos.Sched
	}
	if k.Run || pos.Run {
		if k.Run && pos.Run && k.Seq == pos.Seq {
			return true
		}
		panic(fmt.Sprintf("simclock: unsplittable tie at %v: work scheduled at %v meets a fused run's at the same instant", k.At, k.Sched))
	}
	return k.Seq < pos.Seq
}

// event is one scheduled callback slot. Slots are owned by the clock and
// recycled through a free list; external code only ever sees Handles.
type event struct {
	at       Time
	gen      uint64 // bumped on recycle; stale Handles fail the gen check
	fn       func(now Time)
	canceled bool
	// run marks an event scheduled with a run key (AtKey).
	run bool
}

// entry is one heap element. The ordering key is stored inline, so sifting
// compares entries without dereferencing their slots.
type entry struct {
	at    Time
	sched Time   // the instant the event was scheduled at
	seq   uint64 // scheduling order; breaks ties deterministically
	ev    *event
}

// before is the queue order: by time, then by scheduling instant, then by
// sequence.
func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && (a.sched < b.sched || a.sched == b.sched && a.seq < b.seq)
}

// stream is the clock's arrival cursor (see Stream). It is open while
// k < n; the zero value is closed.
type stream struct {
	n, k   int
	base   uint64 // sequence number of arrival 0
	opened Time   // the instant the stream opened: every arrival's scheduling instant
	next   Time   // at(k), cached
	at     func(k int) Time
	fire   func(k int, now Time)
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
	pq  []entry
	seq uint64
	// processed counts events that have fired (not cancelled ones),
	// stream arrivals included.
	processed uint64
	// canceled counts queue slots holding lazily-cancelled events; when the
	// fraction grows past compactAt the heap is rebuilt without them.
	canceled int
	free     []*event
	stream   stream
	// (now, sched, fired) is the clock's position, the firing watermark:
	// every event keyed before it has fired, and none at or after it has
	// (see Fired). sched is the scheduling instant of the event firing (or
	// last fired), and fired one past its sequence number; posRun marks a
	// run event's position (see Key).
	sched  Time
	fired  uint64
	posRun bool
}

// compactAt bounds how much of the heap cancelled events may occupy before
// a compaction sweep reclaims them, so long-horizon cancels (drain timers,
// end-of-reading events of torn-down requests) cannot bloat the queue.
const compactAt = 64

// New returns a Clock positioned at time Zero with an empty queue.
func New() *Clock {
	return &Clock{sched: Before}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Len reports the number of pending (non-cancelled) events, counting each
// arrival still to come from an open stream.
func (c *Clock) Len() int { return len(c.pq) - c.canceled + c.stream.n - c.stream.k }

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
	return &event{}
}

// recycle retires a fired or swept event slot: the generation bump
// invalidates every outstanding Handle before the slot is reused.
func (c *Clock) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.canceled = false
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
	c.seq++
	return c.push(entry{at: at, sched: c.now, seq: c.seq - 1}, fn, false)
}

// push queues fn at the entry's key.
func (c *Clock) push(x entry, fn func(now Time), run bool) Handle {
	e := c.alloc()
	e.at = x.at
	e.fn = fn
	e.run = run
	x.ev = e
	c.pq = append(c.pq, x)
	c.up(len(c.pq) - 1)
	return Handle{ev: e, gen: e.gen}
}

// AtKey schedules fn at k.At with the explicit key k, for an event whose
// scheduling instant is not the present: the clock event of a fused run
// (see the package comment), keyed at its last iteration's launch, with
// the tag the run reserved when it opened. It panics when k.Sched lies
// after k.At or k has already fired, both simulation logic bugs, as At
// does for a past time.
func (c *Clock) AtKey(k Key, fn func(now Time)) Handle {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	if k.Sched > k.At {
		panic(fmt.Sprintf("simclock: keyed event at %v scheduled after it, at %v", k.At, k.Sched))
	}
	if c.Fired(k) {
		panic(fmt.Sprintf("simclock: keyed event at %v scheduled at %v has already fired, now %v", k.At, k.Sched, c.now))
	}
	return c.push(entry{at: k.At, sched: k.Sched, seq: k.Seq}, fn, k.Run)
}

// Reserve takes the next sequence number without queueing an event, so a
// later At gets the number after it, exactly as if At had been called
// here. The returned key carries that number and the current instant as
// its scheduling instant; the caller sets At. Fired reports when an event
// at the key would have fired.
func (c *Clock) Reserve() Key {
	c.seq++
	return Key{At: c.now, Sched: c.now, Seq: c.seq - 1}
}

// Position reports the clock's position as a key: the instant, the
// scheduling instant of the event firing (or last fired) — the
// scheduling-instant accessor — and one past its sequence number (or its
// run's tag, for a run event).
func (c *Clock) Position() Key {
	if c.posRun {
		return Key{At: c.now, Sched: c.sched, Seq: c.fired - 1, Run: true}
	}
	return Key{At: c.now, Sched: c.sched, Seq: c.fired}
}

// Fired reports whether an event at key k, with a sequence number taken
// from Reserve or a run's key, would already have fired at the clock's
// current position. Step moves the position past each event it fires,
// stream arrivals included; AdvanceTo(t) puts it before every event at t,
// which may still be pending; RunUntil(deadline) puts it after every
// number reserved so far at or before the deadline. Inside an event, a
// reservation at the same instant has fired exactly when its key is lower.
func (c *Clock) Fired(k Key) bool {
	return k.FiredBy(c.Position())
}

// After schedules fn to run d after the current time. Negative d panics.
func (c *Clock) After(d time.Duration, fn func(now Time)) Handle {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// Stream opens the clock's arrival cursor: fire(k, at(k)) runs at instant
// at(k) for k = 0..n-1, in order, each counted as one processed event. The
// instants must not decrease and must not precede Now; Stream checks all
// of them before it returns and panics otherwise, as At does for a past
// time. It also panics while a previous stream still has arrivals to fire
// (one cursor per clock). Stream holds one pending arrival at a time, so
// it allocates nothing and queues nothing however large n is. It reserves
// the sequence block [s, s+n) at the call, so arrival k ties with heap
// events exactly as if At had scheduled it with sequence s+k (see the
// package comment).
func (c *Clock) Stream(n int, at func(k int) Time, fire func(k int, now Time)) {
	if at == nil || fire == nil {
		panic("simclock: nil stream callback")
	}
	if n < 0 {
		panic(fmt.Sprintf("simclock: negative stream length %d", n))
	}
	if c.stream.k < c.stream.n {
		panic("simclock: opening a stream while another is open")
	}
	prev := c.now
	for k := 0; k < n; k++ {
		t := at(k)
		if t < prev {
			if k == 0 {
				panic(fmt.Sprintf("simclock: scheduling stream arrival at %v before now %v", t, c.now))
			}
			panic(fmt.Sprintf("simclock: stream arrival %d at %v precedes arrival %d at %v", k, t, k-1, prev))
		}
		prev = t
	}
	if n == 0 {
		return
	}
	c.stream = stream{n: n, base: c.seq, opened: c.now, next: at(0), at: at, fire: fire}
	c.seq += uint64(n)
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

// compact filters cancelled events out of the heap, recycling their slots,
// and re-heapifies the survivors in place.
func (c *Clock) compact() {
	live := c.pq[:0]
	for _, x := range c.pq {
		if x.ev.canceled {
			c.recycle(x.ev)
			continue
		}
		live = append(live, x)
	}
	clear(c.pq[len(live):])
	c.pq = live
	c.canceled = 0
	for i := (len(live) - 2) / 4; i >= 0 && len(live) > 1; i-- {
		c.down(i)
	}
}

// sweep pops cancelled events off the top of the heap, so the top, if
// any, is live.
func (c *Clock) sweep() {
	for len(c.pq) > 0 && c.pq[0].ev.canceled {
		c.recycle(c.pop())
		c.canceled--
	}
}

// streamFirst reports whether the stream's next arrival precedes the
// (swept) heap top.
func (c *Clock) streamFirst() bool {
	s := &c.stream
	if s.k >= s.n {
		return false
	}
	return len(c.pq) == 0 || entry{at: s.next, sched: s.opened, seq: s.base + uint64(s.k)}.before(c.pq[0])
}

// Peek reports the time of the next pending event, or Forever if the queue
// is empty. Cancelled events surfacing at the top are swept as a side
// effect, so the reported time is always that of a live event.
func (c *Clock) Peek() Time {
	c.sweep()
	next := Forever
	if len(c.pq) > 0 {
		next = c.pq[0].at
	}
	if s := &c.stream; s.k < s.n && s.next < next {
		next = s.next
	}
	return next
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports false when the queue is empty.
func (c *Clock) Step() bool {
	c.sweep()
	if c.streamFirst() {
		s := &c.stream
		k, now, base, opened, fire := s.k, s.next, s.base, s.opened, s.fire
		if s.k++; s.k < s.n {
			s.next = s.at(s.k)
		} else {
			c.stream = stream{} // closed before fire, which may open the next
		}
		c.now, c.sched, c.fired, c.posRun = now, opened, base+uint64(k)+1, false
		c.processed++
		fire(k, now)
		return true
	}
	if len(c.pq) == 0 {
		return false
	}
	top := c.pq[0]
	e := c.pop()
	c.now, c.sched, c.fired, c.posRun = top.at, top.sched, top.seq+1, e.run
	c.processed++
	fn := e.fn
	c.recycle(e)
	fn(c.now)
	return true
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
	if t > c.now {
		c.now, c.sched, c.fired, c.posRun = t, Before, 0, false
	}
}

// RunUntil fires events in order until the queue is exhausted or the next
// event lies strictly after deadline. The clock ends at the later of its
// current time and deadline (but never moves backwards), and every number
// reserved so far at or before that instant reads as fired.
func (c *Clock) RunUntil(deadline Time) {
	for c.Peek() <= deadline && c.Step() {
	}
	if deadline >= c.now && deadline != Forever {
		c.now, c.sched, c.fired, c.posRun = deadline, deadline, c.seq, false
	}
}

// Run fires events until none remain.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// pop removes the heap top and returns its slot.
func (c *Clock) pop() *event {
	h := c.pq
	e := h[0].ev
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{}
	c.pq = h[:n]
	if n > 1 {
		c.down(0)
	}
	return e
}

// up restores the heap order after the entry at i moved earlier.
func (c *Clock) up(i int) {
	h := c.pq
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down restores the heap order after the entry at i moved later.
func (c *Clock) down(i int) {
	h := c.pq
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		for j, end := first+1, min(first+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
