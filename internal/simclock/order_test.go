package simclock

import (
	"math/rand"
	"slices"
	"testing"
)

// This file checks the clock against a reference model: a naive list kept
// sorted by (at, lane, seq), the first lane before the At lane, where a
// stream of n arrivals is simply n first-lane events with consecutive
// sequence numbers. The clock orders by (at, scheduling instant, seq),
// which must give the same order; the model also tracks the scheduling
// instant of the position (Clock.Position): the last fired event's (Before
// for the first lane), the deadline after RunUntil, Before after AdvanceTo
// moves time. Operation sequences are decoded from bytes, so one decoder
// serves the seeded random test and the fuzz target.

// firing is one entry of a firing log: which event fired, and when.
type firing struct {
	id int
	at Time
}

// maxQueued caps the model's queue for the burst operation, so a long
// fuzz input stays fast.
const maxQueued = 2048

// childBase offsets the id of the child event an event may schedule when
// it fires (children schedule none), keeping ids unique on both sides.
const childBase = 1 << 24

// maxReserved caps the reservations one input makes: each firing checks
// every one of them.
const maxReserved = 64

// refEvent is one pending event of the reference model.
type refEvent struct {
	at    Time
	sched Time // the model's instant when it was scheduled; Before on the first lane
	seq   uint64
	id    int
	child Time // delay of the child scheduled on firing; negative for none
	// childFirst puts the child on the first lane.
	childFirst bool
	stream     bool
	first      bool // on the first lane: AtFirst, or a stream arrival
	twin       bool // the At-scheduled twin of a reservation; never cancelled
}

// refClock is the reference model.
type refClock struct {
	now        Time
	sched      Time // the position's scheduling instant
	seq        uint64
	queue      []refEvent // sorted by (at, lane, seq)
	streamLeft int
	log        []firing
	// ties counts stream arrivals that fired back to back, at the same
	// instant, with a first-lane event scheduled before (tieBefore) or
	// after (tieAfter) their stream opened, or ahead of an At event
	// scheduled before it opened (tieAt).
	tieBefore, tieAfter, tieAt int
	streamBase                 uint64 // first sequence number of the last stream
	streamEnd                  uint64 // one past its last
	last                       refEvent
}

func (m *refClock) insert(e refEvent) {
	e.seq, e.sched = m.seq, m.now
	if e.first {
		e.sched = Before
	}
	m.seq++
	i, _ := slices.BinarySearchFunc(m.queue, e, func(x, y refEvent) int {
		if x.at != y.at {
			if x.at < y.at {
				return -1
			}
			return 1
		}
		if x.first != y.first {
			if x.first {
				return -1
			}
			return 1
		}
		if x.seq < y.seq {
			return -1
		}
		return 1
	})
	m.queue = slices.Insert(m.queue, i, e)
}

func (m *refClock) peek() Time {
	if len(m.queue) == 0 {
		return Forever
	}
	return m.queue[0].at
}

func (m *refClock) step() bool {
	if len(m.queue) == 0 {
		return false
	}
	e := m.queue[0]
	m.queue = m.queue[1:]
	m.countTie(m.last, e)
	m.last = e
	m.now, m.sched = e.at, e.sched
	m.log = append(m.log, firing{e.id, e.at})
	if e.stream {
		m.streamLeft--
	}
	if e.child >= 0 {
		m.insert(refEvent{at: m.now + e.child, id: e.id + childBase, child: -1, first: e.childFirst})
	}
	return true
}

// countTie records an equal-instant tie between a stream arrival and a
// heap event, fired back to back.
func (m *refClock) countTie(a, b refEvent) {
	if a.at != b.at || a.stream == b.stream {
		return
	}
	if a.stream {
		a, b = b, a
	}
	if b.seq < m.streamBase || b.seq >= m.streamEnd {
		return // the arrival is from an earlier stream
	}
	switch {
	case !a.first:
		if a.seq < m.streamBase {
			m.tieAt++
		}
	case a.seq < m.streamBase:
		m.tieBefore++
	default:
		m.tieAfter++
	}
}

func (m *refClock) runUntil(deadline Time) {
	for m.peek() <= deadline {
		m.step()
	}
	m.now, m.sched = max(m.now, deadline), deadline
}

// byteReader hands out the fuzz input one byte at a time, then zeros.
type byteReader struct {
	data []byte
}

func (r *byteReader) more() bool { return len(r.data) > 0 }

func (r *byteReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// harness drives a Clock and a refClock through the same operations.
type harness struct {
	t          testing.TB
	c          *Clock
	m          refClock
	log        []firing
	handles    map[int]Handle
	cancelable []int
	nextID     int
	checked    int // length of the firing-log prefix already compared
	// reserved lists the clock's reservations; each has an At-scheduled
	// twin, scheduled right after it, whose firing Fired must track.
	reserved []reservation
	// compactions counts Cancel calls that ran a compaction; advancedOpen
	// counts streams opened after the clock left Zero; firstScheduled
	// counts AtFirst calls that scheduled; reservedTies counts reservation
	// checks made at the reservation's own instant, by whether it read as
	// fired.
	compactions, advancedOpen, firstScheduled int
	reservedTies                              [2]int
}

// reservation is one Reserve call and the state of its twin event.
type reservation struct {
	key       Key
	twinFired bool
}

// reserve takes a sequence number at t and schedules its twin at t on
// both sides; the model skips the reserved number as the clock does.
func (h *harness) reserve(t Time) {
	i := len(h.reserved)
	k := h.c.Reserve()
	k.At = t
	h.reserved = append(h.reserved, reservation{key: k})
	h.m.seq++
	id := h.nextID
	h.nextID++
	h.c.At(t, func(now Time) {
		h.reserved[i].twinFired = true
		h.fired(id, -1, false, now)
	})
	h.m.insert(refEvent{at: t, id: id, child: -1, twin: true})
}

// checkReserved fails unless every reservation reads as fired exactly
// when its twin has fired (or is firing).
func (h *harness) checkReserved(where string) {
	h.t.Helper()
	for _, r := range h.reserved {
		got := h.c.Fired(r.key)
		if got != r.twinFired {
			h.t.Fatalf("%s at %v: Fired(%+v) = %v, twin fired %v", where, h.c.Now(), r.key, got, r.twinFired)
		}
		if r.key.At == h.c.Now() {
			if got {
				h.reservedTies[1]++
			} else {
				h.reservedTies[0]++
			}
		}
	}
}

// fired is the clock-side callback of event id; its child, if any, goes on
// the first lane when first is set.
func (h *harness) fired(id int, child Time, first bool, now Time) {
	h.log = append(h.log, firing{id, now})
	h.checkReserved("inside an event")
	if child >= 0 {
		cid := id + childBase
		fn := func(now Time) { h.fired(cid, -1, false, now) }
		if first {
			h.handles[cid] = h.c.AtFirst(now+child, fn)
		} else {
			h.handles[cid] = h.c.At(now+child, fn)
		}
		h.cancelable = append(h.cancelable, cid)
	}
}

// at schedules event id at t with At, or with AtFirst when first is set,
// or checks that AtFirst panics when the model's position is off the
// first lane. The child stays on its parent's lane.
func (h *harness) at(t, child Time, first bool) {
	if first && h.m.sched != Before {
		mustPanic(h.t, "AtFirst off the first lane", func() { h.c.AtFirst(t, func(Time) {}) })
		return
	}
	id := h.nextID
	h.nextID++
	fn := func(now Time) { h.fired(id, child, first, now) }
	if first {
		h.handles[id] = h.c.AtFirst(t, fn)
		h.firstScheduled++
	} else {
		h.handles[id] = h.c.At(t, fn)
	}
	h.cancelable = append(h.cancelable, id)
	h.m.insert(refEvent{at: t, id: id, child: child, first: first, childFirst: first})
}

func (h *harness) cancel(id int) {
	h.cancelClock(id)
	h.m.queue = slices.DeleteFunc(h.m.queue, func(e refEvent) bool { return e.id == id && !e.stream && !e.twin })
}

// massCancel cancels every event ever scheduled whose id matches, in one
// pass over the model's queue.
func (h *harness) massCancel(match func(id int) bool) {
	for _, id := range h.cancelable {
		if match(id) {
			h.cancelClock(id)
		}
	}
	h.m.queue = slices.DeleteFunc(h.m.queue, func(e refEvent) bool { return match(e.id) && !e.stream && !e.twin })
}

func (h *harness) cancelClock(id int) {
	before := h.c.canceled
	h.c.Cancel(h.handles[id])
	if h.c.canceled < before {
		h.compactions++
	}
}

// streamChild is the child of stream arrival k: every third arrival
// schedules a child at the same instant or one tick later, on either lane.
func streamChild(k int) (delay Time, first bool) {
	if k%3 == 0 {
		return Time(k % 2), k%4 < 2
	}
	return -1, false
}

// stream opens a stream over times on both sides, or checks that the
// clock panics when the model says it must.
func (h *harness) stream(times []Time) {
	bad := h.m.streamLeft > 0 || h.m.sched != Before
	prev := h.m.now
	for _, t := range times {
		bad = bad || t < prev
		prev = t
	}
	base := h.nextID
	open := func() {
		h.c.Stream(len(times), func(k int) Time { return times[k] }, func(k int, now Time) {
			child, first := streamChild(k)
			h.fired(base+k, child, first, now)
		})
	}
	if bad {
		mustPanic(h.t, "Stream off the first lane, with an open stream, or with a decreasing or past time", open)
		return
	}
	if h.c.Now() > Zero && len(times) > 0 {
		h.advancedOpen++
	}
	open()
	h.nextID += len(times)
	h.m.streamBase, h.m.streamEnd = h.m.seq, h.m.seq+uint64(len(times))
	for k, t := range times {
		child, first := streamChild(k)
		h.m.insert(refEvent{at: t, id: base + k, child: child, childFirst: first, stream: true, first: true})
	}
	h.m.streamLeft += len(times)
}

func (h *harness) check(op string) {
	h.t.Helper()
	if !slices.Equal(h.log[h.checked:], h.m.log[min(h.checked, len(h.m.log)):]) {
		h.t.Fatalf("after %s: firing order diverged after %d firings\nclock: %v\nmodel: %v",
			op, h.checked, h.log[h.checked:], h.m.log[min(h.checked, len(h.m.log)):])
	}
	h.checked = len(h.log)
	if h.c.Now() != h.m.now || h.c.Len() != len(h.m.queue) || h.c.Peek() != h.m.peek() {
		h.t.Fatalf("after %s: clock now=%v len=%d peek=%v, model now=%v len=%d peek=%v",
			op, h.c.Now(), h.c.Len(), h.c.Peek(), h.m.now, len(h.m.queue), h.m.peek())
	}
	if p := h.c.Position(); p.At != h.m.now || p.Sched != h.m.sched {
		h.t.Fatalf("after %s: position at %v scheduled at %v, model %v scheduled at %v",
			op, p.At, p.Sched, h.m.now, h.m.sched)
	}
	if h.c.Processed() != uint64(len(h.log)) {
		h.t.Fatalf("after %s: Processed = %d, fired %d", op, h.c.Processed(), len(h.log))
	}
	h.checkReserved("after " + op)
}

// checkClockOrder decodes data into clock operations, applies each to a
// Clock and to the reference model, and fails on the first divergence.
func checkClockOrder(t testing.TB, data []byte) *harness {
	h := &harness{t: t, c: New(), handles: make(map[int]Handle), m: refClock{sched: Before}}
	r := &byteReader{data: data}
	for r.more() {
		switch op := r.next() % 9; op {
		case 0, 1: // At or AtFirst, maybe with a child; or a reservation and its twin
			t, x := h.c.Now()+Time(r.next()%8), r.next()
			if x%6 == 5 && len(h.reserved) < maxReserved {
				h.reserve(t)
				h.check("Reserve")
				break
			}
			h.at(t, Time(x%6-2), x/6%2 == 1)
			h.check("At")
		case 2: // Cancel of any event ever scheduled, fired ones included
			if len(h.cancelable) > 0 {
				h.cancel(h.cancelable[(r.next()<<8|r.next())%len(h.cancelable)])
			}
			h.check("Cancel")
		case 3: // Stream, sometimes invalid
			n, flag := r.next()%24, r.next()
			if flag%8 == 2 {
				n = 200 + r.next()
			}
			t := h.c.Now() + Time(r.next()%4)
			if flag%8 == 1 && h.c.Now() > Zero {
				t = h.c.Now() - 1
			}
			times := make([]Time, n)
			for k := range times {
				if k > 0 {
					t += Time(r.next() % 3)
				}
				times[k] = t
			}
			if flag%8 == 0 && n >= 2 {
				times[n-1] = times[n-2] - 1
			}
			h.stream(times)
			h.check("Stream")
		case 4: // RunUntil
			d := h.c.Now() + Time(r.next()%16)
			h.c.RunUntil(d)
			h.m.runUntil(d)
			h.check("RunUntil")
		case 5: // AdvanceTo, sometimes past a pending event
			next := h.m.peek()
			if x := r.next(); x%8 == 7 && next != Forever {
				mustPanic(t, "AdvanceTo past a pending event", func() { h.c.AdvanceTo(next + 1) })
			} else {
				to := min(next, h.c.Now()+Time(x%8))
				h.c.AdvanceTo(to)
				if to > h.m.now {
					h.m.now, h.m.sched = to, Before
				}
			}
			h.check("AdvanceTo")
		case 6: // Step
			if got, want := h.c.Step(), h.m.step(); got != want {
				t.Fatalf("Step = %v, model %v", got, want)
			}
			h.check("Step")
		case 7: // a burst of far-future events, fodder for compaction
			n := compactAt + r.next()%128
			if len(h.m.queue) > maxQueued {
				n = 0
			}
			for k := 0; k < n; k++ {
				h.at(h.c.Now()+1000+Time(k%16), -1, false)
			}
			h.check("burst")
		case 8: // cancel three in four of everything ever scheduled
			keep := r.next() % 4
			h.massCancel(func(id int) bool { return id%4 != keep })
			h.check("mass cancel")
		}
	}
	h.c.Run()
	for h.m.step() {
	}
	h.check("Run")
	return h
}

func mustPanic(t testing.TB, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// Random interleavings of every clock operation fire in exactly the
// reference model's order, and the runs between them cover the cases the
// tie rule, the first lane and lazy cancellation exist for.
func TestClockMatchesReferenceModel(t *testing.T) {
	var tieBefore, tieAfter, tieAt, compactions, advancedOpen, firstScheduled int
	var reservedTies [2]int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		h := checkClockOrder(t, data)
		tieBefore += h.m.tieBefore
		tieAfter += h.m.tieAfter
		tieAt += h.m.tieAt
		compactions += h.compactions
		advancedOpen += h.advancedOpen
		firstScheduled += h.firstScheduled
		reservedTies[0] += h.reservedTies[0]
		reservedTies[1] += h.reservedTies[1]
	}
	t.Logf("arrival ties with first-lane events before/after the stream: %d/%d, with At events scheduled before it: %d, compactions: %d, streams opened after Zero: %d, AtFirst calls: %d, reservations read at their instant pending/fired: %d/%d",
		tieBefore, tieAfter, tieAt, compactions, advancedOpen, firstScheduled, reservedTies[0], reservedTies[1])
	if tieBefore == 0 || tieAfter == 0 || tieAt == 0 || compactions == 0 || advancedOpen == 0 ||
		firstScheduled == 0 || reservedTies[0] == 0 || reservedTies[1] == 0 {
		t.Fatal("the random interleavings missed a case the model test must cover")
	}
}

// FuzzClockOrder explores operation sequences beyond the seeded ones; its
// seed corpus is in testdata/fuzz/FuzzClockOrder.
func FuzzClockOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		checkClockOrder(t, data)
	})
}

// Arrivals are first-lane events: at their instant they fire before every
// At event, whenever it was scheduled, and among first-lane events in call
// order — after one scheduled before the stream opened, before one
// scheduled after it, even by an arrival's own callback.
func TestStreamTieRule(t *testing.T) {
	c := New()
	var order []string
	note := func(s string) func(Time) { return func(Time) { order = append(order, s) } }
	c.At(FromSeconds(1), note("at-before"))
	c.AtFirst(FromSeconds(1), note("first-before"))
	c.Stream(2, func(int) Time { return FromSeconds(1) }, func(k int, now Time) {
		order = append(order, []string{"arrival0", "arrival1"}[k])
		if k == 0 {
			c.At(now, note("at-child"))
			c.AtFirst(now, note("first-child"))
		}
	})
	c.At(FromSeconds(1), note("at-after"))
	c.AtFirst(FromSeconds(1), note("first-after"))
	c.Run()
	want := []string{"first-before", "arrival0", "arrival1", "first-after", "first-child",
		"at-before", "at-after", "at-child"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if c.Processed() != 8 || c.Len() != 0 {
		t.Fatalf("processed=%d len=%d, want 8 and 0", c.Processed(), c.Len())
	}
}

// The first lane is scheduled only from the first lane: AtFirst and Stream
// panic inside an At event, at any instant, and after one has fired until
// AdvanceTo moves the clock; inside a first-lane event or an arrival they
// schedule.
func TestFirstLanePremise(t *testing.T) {
	nop := func(Time) {}
	fire := func(int, Time) {}
	at := func(int) Time { return 9 }
	c := New()
	c.At(5, func(now Time) {
		mustPanic(t, "AtFirst inside an At event", func() { c.AtFirst(now, nop) })
		mustPanic(t, "AtFirst at a later instant inside an At event", func() { c.AtFirst(now+1, nop) })
		mustPanic(t, "Stream inside an At event", func() { c.Stream(1, at, fire) })
	})
	c.Step()
	mustPanic(t, "AtFirst after an At event fired", func() { c.AtFirst(6, nop) })
	c.AdvanceTo(6)
	var inside []Time
	c.AtFirst(6, func(now Time) {
		c.AtFirst(now, func(now Time) { inside = append(inside, now) })
	})
	c.Step()
	c.Stream(1, at, func(_ int, now Time) {
		c.AtFirst(now+1, func(now Time) { inside = append(inside, now) })
	})
	c.Run()
	if !slices.Equal(inside, []Time{6, 10}) || c.Processed() != 5 {
		t.Fatalf("first-lane children fired at %v, processed %d; want [6 10] and 5", inside, c.Processed())
	}
}

func TestStreamPanics(t *testing.T) {
	at := func(ts ...Time) func(int) Time { return func(k int) Time { return ts[k] } }
	fire := func(int, Time) {}
	mustPanic(t, "Stream with a nil callback", func() { New().Stream(1, at(0), nil) })
	mustPanic(t, "Stream with a decreasing time", func() { New().Stream(3, at(1, 2, 1), fire) })
	c := New()
	c.AtFirst(5, func(Time) {})
	c.Run()
	mustPanic(t, "Stream starting in the past", func() { c.Stream(1, at(4), fire) })
	c.Stream(2, at(5, 6), fire)
	mustPanic(t, "a second open Stream", func() { c.Stream(1, at(7), fire) })
	c.Step()
	mustPanic(t, "a second Stream with one arrival left", func() { c.Stream(1, at(7), fire) })
	c.Step()
	c.Stream(1, at(7), fire) // the first stream has closed
	c.Run()
	if c.Now() != 7 || c.Processed() != 4 {
		t.Fatalf("now=%v processed=%d, want 7 and 4", c.Now(), c.Processed())
	}
}
