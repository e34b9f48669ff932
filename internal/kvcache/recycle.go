package kvcache

import (
	"fmt"

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
// sync landing or a pending load booked under an older epoch therefore
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

// pendingLoad is one booked resume load: its entry and the entry's epoch
// at booking, and the instant the transfer completes.
type pendingLoad struct {
	e     *entry
	epoch uint64
	done  simclock.Time
}

// bookLoad queues a load completing at done. The host-to-device link is
// FIFO and never rewinds, so completions are booked in firing order, and
// one method value bound on first use serves every load's clock event.
func (m *Manager) bookLoad(e *entry, done simclock.Time) {
	if n := len(m.pendingLoads); n > m.loadHead && done < m.pendingLoads[n-1].done {
		panic(fmt.Sprintf("kvcache: load completing at %v booked after one completing at %v", done, m.pendingLoads[n-1].done))
	}
	if m.loadDoneFn == nil {
		m.loadDoneFn = m.loadDone
	}
	m.pendingLoads = append(m.pendingLoads, pendingLoad{e: e, epoch: e.epoch, done: done})
	m.clock.At(done, m.loadDoneFn)
}

// loadDone completes the oldest booked load. A preemption, discard or
// crash since the booking bumped the entry's epoch, and the load then
// does nothing.
func (m *Manager) loadDone(t simclock.Time) {
	l := m.pendingLoads[m.loadHead]
	if l.done != t {
		panic(fmt.Sprintf("kvcache: load completion at %v, but the oldest load completes at %v", t, l.done))
	}
	m.pendingLoads[m.loadHead] = pendingLoad{}
	if m.loadHead++; m.loadHead == len(m.pendingLoads) {
		m.pendingLoads, m.loadHead = m.pendingLoads[:0], 0
	} else if m.loadHead > 64 && 2*m.loadHead > len(m.pendingLoads) {
		// A FIFO that never empties still reuses its front.
		n := copy(m.pendingLoads, m.pendingLoads[m.loadHead:])
		clear(m.pendingLoads[n:])
		m.pendingLoads, m.loadHead = m.pendingLoads[:n], 0
	}
	e := l.e
	if e.epoch != l.epoch {
		return
	}
	m.touch(true)
	e.res = ResGPU
	// The host copy remains valid: only pages appended after resume are
	// dirty (the incremental-update benefit of write-through).
	e.synced = e.pages
	if m.cb.LoadDone != nil {
		m.cb.LoadDone(e.req, t)
	}
}
