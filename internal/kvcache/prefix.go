package kvcache

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/simclock"
)

// Session prefix pins: the radix-cache analogue of the unified residency
// model. When a multi-turn request finishes, its context KV stays on the
// device as a pinned prefix for the session's next turn — charged against
// the same page pool live requests allocate from, LRU-evicted under
// pressure (dirty pages drain over the d2h link before their pages free,
// preserving the write-through host mirror), and reclaimed before any
// admission is allowed to stall. A later turn that hits the pin adopts its
// pages into its own allocation instead of double-charging the pool.
//
// Pins can also migrate between replicas: the cluster ships a pin's pages
// over an interconnect link and installs them on a peer manager, so an
// overloaded replica hands a session's KV off instead of forcing the peer
// to recompute it.

// pin is one session's pinned prefix.
type pin struct {
	session int
	// tokens is the cached context length; pages its pool footprint.
	tokens int
	pages  int
	// synced counts pages with a clean host mirror (inherited from the
	// finished request's write-through progress). Evicting a pin frees
	// synced pages immediately; dirty pages drain over d2h first.
	synced int
	// migrating marks a pin whose pages are on the interconnect wire; it
	// is excluded from eviction, adoption, and hits until released.
	migrating bool
	// prev and next link the pin into the manager's LRU order (pinLRU).
	prev, next *pin
}

// PrefixEnabled reports whether the manager pins session prefixes.
func (m *Manager) PrefixEnabled() bool { return m.cfg.PrefixPages > 0 }

// PinnedPrefixPages reports the pool pages currently held by prefix pins.
func (m *Manager) PinnedPrefixPages() int { return m.pinnedPages }

// PeekPrefix reports the pinned prefix tokens for a session without
// touching the LRU order (router and admission probes). A migrating pin
// reports zero: its pages are leaving this device.
func (m *Manager) PeekPrefix(session int) int {
	p, ok := m.pins[session]
	if !ok || p.migrating {
		return 0
	}
	return p.tokens
}

// TakePrefix reports the pinned prefix tokens for a session and marks the
// pin most recently used (a hit assessed at arrival).
func (m *Manager) TakePrefix(session int) int {
	m.touch(true)
	p, ok := m.pins[session]
	if !ok || p.migrating {
		return 0
	}
	m.touchPin(p)
	return p.tokens
}

// touchPin moves a pin to the MRU end of the eviction order.
func (m *Manager) touchPin(p *pin) {
	m.pinOrder.moveToFront(p)
}

// insertPin registers a new pin as most recently used and charges its
// pages to the pinned total.
func (m *Manager) insertPin(p *pin) {
	m.pins[p.session] = p
	m.pinOrder.pushFront(p)
	m.pinnedPages += p.pages
	if m.pinnedPages > m.peakPinnedPages {
		m.peakPinnedPages = m.pinnedPages
	}
	m.obs.Emit(m.clock.Now(), obs.KindKVPin, m.obsReplica, -1, p.session,
		int64(p.tokens), int64(p.pages), 0, 0, "")
	if m.pubPin != nil {
		m.pubPin(p.session, p.tokens)
	}
}

// removePin unregisters a pin without releasing its pool pages. insertPin
// and removePin are the pin set's only mutation choke points, so
// publishing here covers every lifecycle path — eviction, adoption,
// supersession, migration completion, install replacement, crash.
func (m *Manager) removePin(p *pin) {
	delete(m.pins, p.session)
	m.pinOrder.remove(p)
	m.pinnedPages -= p.pages
	if m.pubPin != nil {
		m.pubPin(p.session, 0)
	}
}

// ReleaseAsPrefix converts a finished request's resident pages into a
// session prefix pin instead of freeing them — the KV is already on the
// device, so pinning is free. Contexts that exceed the prefix budget, and
// contexts no longer than an existing pin for the session (an earlier turn
// finishing late), are discarded instead. A larger context supersedes the
// session's previous pin, whose pages free immediately (the new context's
// KV covers them).
func (m *Manager) ReleaseAsPrefix(r *request.Request, session int, now simclock.Time) {
	m.touch(true)
	m.settle()
	e, ok := m.entries[r.ID]
	if !ok || e.res != ResGPU || !m.PrefixEnabled() || session == 0 {
		m.Discard(r)
		return
	}
	tokens := r.ContextLen()
	if tokens <= 0 || e.pages > m.cfg.PrefixPages {
		m.Discard(r)
		return
	}
	if old, exists := m.pins[session]; exists {
		if old.migrating || old.tokens >= tokens {
			m.Discard(r)
			return
		}
		// Superseded: the finishing turn's context extends the old pin.
		m.removePin(old)
		m.free += old.pages
		m.freePin(old)
	}

	p := m.newPin(session, tokens, e.gpuHeld, min(e.synced, e.gpuHeld))
	// Detach the request entry, keeping its pages charged to the pool
	// (they now belong to the pin). In-flight sync chunks are invalidated;
	// their progress is not counted.
	e.epoch++
	e.gpuHeld = 0
	e.res = ResNone
	delete(m.entries, r.ID)
	m.dropFromSyncOrder(e)
	m.freeEntry(e)

	m.insertPin(p)
	m.prefixPins++
	// Enforce the budget: the freshly pinned context is MRU, so overflow
	// evicts other sessions in LRU order.
	for m.pinnedPages > m.cfg.PrefixPages {
		if _, ok := m.evictLRUPin(now, session); !ok {
			break
		}
	}
}

// evictLRUPin evicts the least-recently-used non-migrating pin, skipping
// the excluded session, and reports the evicted pin's pages (ok false
// when no pin is evictable).
func (m *Manager) evictLRUPin(now simclock.Time, exclude int) (pages int, ok bool) {
	for p := m.pinOrder.back; p != nil; p = p.prev {
		if p.migrating || p.session == exclude {
			continue
		}
		pages = p.pages
		m.evictPin(p, now)
		return pages, true
	}
	return 0, false
}

// evictPin drops one pin under pressure. Synced pages free immediately.
// With offload enabled, dirty pages drain over the d2h link (maintaining
// the host-mirror invariant of write-through) and free when the transfer
// completes; without offload there is no host tier to mirror into, so the
// pages discard instantly — the same rule request preemption follows.
// Under HostCache the completed mirror outlives the pin: a later turn can
// reload it over h2d instead of recomputing (see hostcache.go). The pin
// goes back to the free list.
func (m *Manager) evictPin(p *pin, now simclock.Time) {
	m.removePin(p)
	m.prefixEvictions++
	session, tokens, pages, synced := p.session, p.tokens, p.pages, p.synced
	m.freePin(p)
	m.obs.Emit(now, obs.KindKVEvict, m.obsReplica, -1, session,
		int64(tokens), int64(pages), 0, 0, "")
	dirty := pages - synced
	if !m.cfg.Offload {
		m.free += pages
		return
	}
	m.free += synced
	if dirty <= 0 {
		m.insertMirror(session, tokens, pages, now)
		return
	}
	bytes := int64(dirty) * m.PageBytes()
	m.prefixBytesDrained += bytes
	_, done := m.ep.EnqueueD2H(fabric.ClassEvict, now, bytes)
	m.insertMirror(session, tokens, pages, done)
	m.book(&m.d2hDone, completion{kind: doneDrain, pages: dirty, epoch: m.crashEpoch, done: done})
}

// drainDone returns a drained pin's dirty pages to the pool.
func (m *Manager) drainDone(c completion, t simclock.Time) {
	if m.crashEpoch != c.epoch {
		return // the drain's pages died with the replica
	}
	m.touch(true)
	m.free += c.pages
	if m.cb.PinDrained != nil {
		m.cb.PinDrained(t)
	}
}

// ReclaimPrefixPages evicts prefix pins (LRU first, excluding the given
// session) until need pages are covered — counting both pages freed
// immediately and dirty pages already draining toward the pool — or no
// evictable pin remains. It returns the pages freed synchronously; drained
// pages arrive later (PinDrained fires then), so a caller that still
// cannot allocate stalls only until the drain lands. Bounding the loop by
// covered rather than synchronously-freed pages keeps one small shortfall
// from flushing the entire pin set when pins are dirty. Admission and load
// paths call this before stalling, so live requests always outrank cached
// prefixes.
func (m *Manager) ReclaimPrefixPages(need int, now simclock.Time, exclude int) int {
	m.touch(true)
	freed, draining := 0, 0
	for freed+draining < need {
		before := m.free
		pages, ok := m.evictLRUPin(now, exclude)
		if !ok {
			break
		}
		freed += m.free - before
		draining += pages - (m.free - before)
	}
	return freed
}

// AdoptablePages reports the pool pages an admission for the session
// would absorb from its pin (0 for session 0, no pin, or a migrating
// pin). Engine admission uses it to size reclaims accurately.
func (m *Manager) AdoptablePages(session int) int {
	m.touch(false)
	return m.adoptablePages(session)
}

// adoptablePages reports the pool pages an admission for the session could
// absorb from its pin.
func (m *Manager) adoptablePages(session int) int {
	if session == 0 {
		return 0
	}
	p, ok := m.pins[session]
	if !ok || p.migrating {
		return 0
	}
	return p.pages
}

// CanAdmit reports whether a context of the given tokens fits the pool
// right now, counting the session's adoptable pinned prefix pages as free
// (they fold into the new allocation rather than double-charging).
func (m *Manager) CanAdmit(tokens, session int) bool {
	m.touch(false)
	return m.Pages(tokens) <= m.free+m.adoptablePages(session)
}

// AllocateWithPrefix claims pages for a request entering the device,
// adopting the session's pinned prefix into the allocation: the pin's
// pages transfer to the request (its KV prefix is already resident and
// keeps the pin's host-mirror progress), and only the pages beyond the
// prefix are newly charged. With session 0 or no pin it is exactly
// AllocateResident.
func (m *Manager) AllocateWithPrefix(r *request.Request, contextTokens, session int) error {
	m.touch(true)
	if e, ok := m.entries[r.ID]; ok && e.res != ResNone {
		return fmt.Errorf("kvcache: request %d already has residency %v", r.ID, e.res)
	}
	adopted := 0
	if session != 0 {
		if p, ok := m.pins[session]; ok && !p.migrating {
			m.removePin(p)
			m.free += p.pages
			adopted = p.synced
			m.prefixAdopts++
			m.freePin(p)
		}
	}
	pages := m.Pages(contextTokens)
	if pages > m.free {
		return fmt.Errorf("kvcache: request %d needs %d pages, %d free", r.ID, pages, m.free)
	}
	m.free -= pages
	e := m.newEntry()
	e.req, e.res, e.pages, e.gpuHeld = r, ResGPU, pages, pages
	e.synced = min(adopted, pages)
	m.entries[r.ID] = e
	m.syncOrder = append(m.syncOrder, e)
	return nil
}

// PrefixInfo describes one pinned session prefix (batch pre-warm and
// drain planning).
type PrefixInfo struct {
	// Session is the pin's conversation key.
	Session int
	// Tokens is the pinned context length; Pages its pool footprint.
	Tokens, Pages int
}

// HottestPrefixes appends up to k pinned prefixes to dst in
// most-recently-used order, skipping pins already on the interconnect
// wire, and returns the extended slice; k <= 0 lists all. The list is a
// copy, so the caller may migrate or drop the pins it names while walking
// it. The cluster uses it to pre-warm a scaling-up replica with the
// sessions most likely to return, to empty a draining replica, and to
// replicate pins to peers' host tiers. Probing does not perturb the
// eviction order.
func (m *Manager) HottestPrefixes(dst []PrefixInfo, k int) []PrefixInfo {
	if k <= 0 {
		k = m.pinOrder.n
	}
	n := 0
	for p := m.pinOrder.front; p != nil && n < k; p = p.next {
		if p.migrating {
			continue
		}
		dst = append(dst, PrefixInfo{Session: p.session, Tokens: p.tokens, Pages: p.pages})
		n++
	}
	return dst
}

// ServablePins counts the pins HottestPrefixes(nil, 0) would list, every pin
// not staked for migration out, without building the list.
func (m *Manager) ServablePins() int {
	n := 0
	for p := m.pinOrder.front; p != nil; p = p.next {
		if !p.migrating {
			n++
		}
	}
	return n
}

// DropPrefix evicts a session's pin outright (a draining replica with no
// surviving peer to migrate to). Synced pages free immediately; dirty pages
// drain to the host first, exactly as a pressure eviction would. It reports
// whether a pin was dropped.
func (m *Manager) DropPrefix(session int, now simclock.Time) bool {
	m.touch(true)
	p, ok := m.pins[session]
	if !ok || p.migrating {
		return false
	}
	m.evictPin(p, now)
	return true
}

// PrefixFootprint reports a session pin's cached tokens and wire size
// without perturbing the LRU order (the migration cost model sizes the
// transfer before deciding whether to commit it). A migrating pin reports
// zero.
func (m *Manager) PrefixFootprint(session int) (tokens int, bytes int64) {
	p, ok := m.pins[session]
	if !ok || p.migrating {
		return 0, 0
	}
	return p.tokens, int64(p.pages) * m.PageBytes()
}

// BeginMigrateOut stakes a pin for cross-replica migration: the pin's
// pages stay charged (they are being read over the wire) but it no longer
// hits, adopts, or evicts. It reports the pinned tokens and the transfer
// size. The caller books the interconnect transfer and must call
// CompleteMigrateOut when it finishes.
func (m *Manager) BeginMigrateOut(session int) (tokens int, bytes int64, ok bool) {
	m.touch(true)
	p, okp := m.pins[session]
	if !okp || p.migrating {
		return 0, 0, false
	}
	p.migrating = true
	bytes = int64(p.pages) * m.PageBytes()
	// The caller books exactly these bytes on the interconnect, so this
	// counter is the kvcache-side mirror of the fabric's migrate, prewarm,
	// and drain classes combined (the invariant suite cross-checks them).
	m.migratedOutBytes += bytes
	// A staked pin stops hitting and adopting (PeekPrefix reports zero),
	// so the index learns the departure now, not at transfer completion.
	if m.pubPin != nil {
		m.pubPin(p.session, 0)
	}
	return p.tokens, bytes, true
}

// CompleteMigrateOut releases a migrated-out pin: its pages free (the
// peer now holds the KV) and the session is forgotten on this device.
func (m *Manager) CompleteMigrateOut(session int) {
	m.touch(true)
	p, ok := m.pins[session]
	if !ok || !p.migrating {
		return
	}
	m.removePin(p)
	m.free += p.pages
	m.migratedOutTokens += int64(p.tokens)
	m.freePin(p)
}

// InstallPrefix materializes a migrated-in prefix as a pin on this
// manager, evicting LRU pins to make room if needed. The migrated copy
// arrives host-mirrored (the transfer pipeline propagates it), so a later
// eviction of this pin is free. Installation is dropped — reported false —
// when the prefix exceeds the budget, an equal-or-larger pin already
// exists, or the pool cannot fit it even after reclaiming every other pin.
func (m *Manager) InstallPrefix(session, tokens int, now simclock.Time) bool {
	m.touch(true)
	if !m.PrefixEnabled() || session == 0 || tokens <= 0 {
		m.migrationDrops++
		return false
	}
	pages := m.Pages(tokens)
	if pages > m.cfg.PrefixPages {
		m.migrationDrops++
		return false
	}
	if old, ok := m.pins[session]; ok {
		if old.migrating || old.tokens >= tokens {
			m.migrationDrops++
			return false
		}
		m.removePin(old)
		m.free += old.pages
		m.freePin(old)
	}
	if !m.placePin(session, tokens, pages, now) {
		m.migrationDrops++
		return false
	}
	m.migratedInTokens += int64(tokens)
	return true
}

// placePin claims pool pages for a fully synced incoming pin (migrated in
// or reloaded from the host tier), reclaiming colder pins to make room and
// enforcing the prefix budget afterward. It reports false — with nothing
// charged — when the pool cannot fit the pin even after reclaiming every
// other pin. InstallPrefix and ReloadMirror share it so reloaded and
// migrated-in pins always obey identical pool-admission rules.
func (m *Manager) placePin(session, tokens, pages int, now simclock.Time) bool {
	if pages > m.free {
		m.ReclaimPrefixPages(pages-m.free, now, session)
	}
	if pages > m.free {
		return false
	}
	m.free -= pages
	m.insertPin(m.newPin(session, tokens, pages, pages))
	m.prefixPins++
	for m.pinnedPages > m.cfg.PrefixPages {
		if _, ok := m.evictLRUPin(now, session); !ok {
			break
		}
	}
	return true
}
