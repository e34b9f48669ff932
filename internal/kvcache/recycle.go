package kvcache

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/simclock"
)

// Recycling: a served request's lifecycle (allocate, release as a prefix
// pin, adopt or evict, mirror on the host) takes its entry, pin and
// host-mirror objects from per-manager free lists and returns them when
// nothing reads them any more, so a warmed manager allocates nothing per
// request. The lists grow lazily, one object at a time, and are never
// shared between managers.
//
// The epoch rule: a recycled entry keeps its epoch, and every transition
// that retires it (Discard, ReleaseAsPrefix) bumps it first. A Handle, a
// sync landing or a load or eviction booked under an older epoch therefore
// never matches the entry's next occupant.

// newEntry takes a cleared entry from the free list, or allocates one.
func (m *Manager) newEntry() *entry {
	if n := len(m.entryFree); n > 0 {
		e := m.entryFree[n-1]
		m.entryFree = m.entryFree[:n-1]
		return e
	}
	return new(entry)
}

// freeEntry returns a retired entry, whose epoch its retirement already
// bumped, to the free list. Only the epoch survives.
func (m *Manager) freeEntry(e *entry) {
	*e = entry{epoch: e.epoch}
	m.entryFree = append(m.entryFree, e)
}

// newPin takes a pin from the free list, or allocates one, and sets it.
func (m *Manager) newPin(session, tokens, pages, synced int) *pin {
	var p *pin
	if n := len(m.pinFree); n > 0 {
		p = m.pinFree[n-1]
		m.pinFree = m.pinFree[:n-1]
	} else {
		p = new(pin)
	}
	*p = pin{session: session, tokens: tokens, pages: pages, synced: synced}
	return p
}

// freePin returns a pin that removePin took out of the pin set.
func (m *Manager) freePin(p *pin) {
	m.pinFree = append(m.pinFree, p)
}

// freeHostPin returns a mirror that dropHostMirror took out of the tier.
func (m *Manager) freeHostPin(hp *hostPin) {
	m.hostPinFree = append(m.hostPinFree, hp)
}

// newHostPin takes a host mirror from the free list, or allocates one,
// and sets it.
func (m *Manager) newHostPin(session, tokens, pages int, readyAt simclock.Time) *hostPin {
	var hp *hostPin
	if n := len(m.hostPinFree); n > 0 {
		hp = m.hostPinFree[n-1]
		m.hostPinFree = m.hostPinFree[:n-1]
	} else {
		hp = new(hostPin)
	}
	*hp = hostPin{session: session, tokens: tokens, pages: pages, readyAt: readyAt}
	return hp
}

// pinLRU is the pins' recency order, an intrusive doubly linked list
// threaded through pin.prev and pin.next: front is the most recently
// used pin, back the first eviction candidate.
type pinLRU struct {
	front, back *pin
	n           int
}

// pushFront inserts p as the most recently used pin.
func (l *pinLRU) pushFront(p *pin) {
	p.prev, p.next = nil, l.front
	if l.front != nil {
		l.front.prev = p
	} else {
		l.back = p
	}
	l.front = p
	l.n++
}

// remove unlinks p.
func (l *pinLRU) remove(p *pin) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.front = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.back = p.prev
	}
	p.prev, p.next = nil, nil
	l.n--
}

// moveToFront makes p the most recently used pin.
func (l *pinLRU) moveToFront(p *pin) {
	if l.front == p {
		return
	}
	l.remove(p)
	l.pushFront(p)
}

// hostPinLRU is the host mirrors' recency order, threaded through
// hostPin.prev and hostPin.next like pinLRU: front is the most recently
// created or refreshed mirror, back the first the budget drops.
type hostPinLRU struct {
	front, back *hostPin
}

// pushFront inserts hp as the most recent mirror.
func (l *hostPinLRU) pushFront(hp *hostPin) {
	hp.prev, hp.next = nil, l.front
	if l.front != nil {
		l.front.prev = hp
	} else {
		l.back = hp
	}
	l.front = hp
}

// remove unlinks hp.
func (l *hostPinLRU) remove(hp *hostPin) {
	if hp.prev != nil {
		hp.prev.next = hp.next
	} else {
		l.front = hp.next
	}
	if hp.next != nil {
		hp.next.prev = hp.prev
	} else {
		l.back = hp.prev
	}
	hp.prev, hp.next = nil, nil
}

// Host-link completions. Four transfers end in a clock event: a resume
// load and a mirror reload on the host-to-device link, a dirty eviction
// and a dirty pin drain on the device-to-host one. A link is FIFO and
// never rewinds, so each direction's completions fire in the order they
// were booked: one queue per direction records them in that order, and
// one callback bound on the queue's first use serves every event, so no
// completion allocates a closure.

// doneKind says which transfer a completion ends.
type doneKind uint8

const (
	doneLoad   doneKind = iota // h2d: a preempted request's KV is back (loadDone)
	doneReload                 // h2d: a host mirror lands as a pin (reloadDone)
	doneEvict                  // d2h: a preempted request's dirty pages left (evictDone)
	doneDrain                  // d2h: an evicted pin's dirty pages left (drainDone)
)

// completion is one booked host-link transfer and its guard: epoch is the
// entry's epoch at booking for a load or an eviction, and the manager's
// crashEpoch for a reload or a drain. A completion whose guard moved on
// does nothing.
type completion struct {
	kind  doneKind
	class fabric.Class // reload: ClassReload or ClassReplicate
	pages int          // drain: the dirty pages it returns to the pool
	e     *entry       // load, evict
	hp    *hostPin     // reload
	epoch uint64
	done  simclock.Time
}

// completionQueue is one link direction's booked completions,
// pending[head:] in firing order.
type completionQueue struct {
	pending []completion
	head    int
	fire    func(simclock.Time)
}

// book queues c on q and schedules its clock event at c.done. A
// completion earlier than the last one queued means the link rewound,
// which panics.
func (m *Manager) book(q *completionQueue, c completion) {
	if n := len(q.pending); n > q.head && c.done < q.pending[n-1].done {
		panic(fmt.Sprintf("kvcache: host-link completion at %v booked after one at %v", c.done, q.pending[n-1].done))
	}
	if q.fire == nil {
		q.fire = func(t simclock.Time) { m.complete(q.pop(t), t) }
	}
	q.pending = append(q.pending, c)
	m.clock.At(c.done, q.fire)
}

// pop takes the oldest completion, which must be the one firing at t.
func (q *completionQueue) pop(t simclock.Time) completion {
	c := q.pending[q.head]
	if c.done != t {
		panic(fmt.Sprintf("kvcache: host-link completion at %v, but the oldest completes at %v", t, c.done))
	}
	q.pending[q.head] = completion{}
	if q.head++; q.head == len(q.pending) {
		q.pending, q.head = q.pending[:0], 0
	} else if q.head > 64 && 2*q.head > len(q.pending) {
		// A queue that never empties still reuses its front.
		n := copy(q.pending, q.pending[q.head:])
		clear(q.pending[n:])
		q.pending, q.head = q.pending[:n], 0
	}
	return c
}

// complete applies one fired completion.
func (m *Manager) complete(c completion, t simclock.Time) {
	switch c.kind {
	case doneLoad:
		m.loadDone(c, t)
	case doneReload:
		m.reloadDone(c, t)
	case doneEvict:
		m.evictDone(c, t)
	case doneDrain:
		m.drainDone(c, t)
	}
}
