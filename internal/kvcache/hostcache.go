package kvcache

// Host-tier prefix cache: the pin lifecycle extended past eviction. Under
// write-through, an evicted pin's pages already have (or are draining
// toward) a complete host mirror — before this extension the manager
// simply forgot that copy, so a returning session turn recomputed its
// whole prefix. With Config.HostCache the mirror outlives the pin as a
// hostPin: host memory only, never charged against the GPU pool. When the
// session's next turn arrives, the engine weighs reloading the mirror over
// the host-to-device link (queueing plus wire time, measured from the real
// link backlog) against recomputing the prefix, and books the reload
// through the fabric when the wire wins. The reload is charged inside the
// turn's TTFT, exactly like a cross-replica migration.
//
// Mirrors are content-addressed by session: a session's prompts only ever
// extend, so a shorter mirror stays a valid prefix of every later turn. A
// mirror is replaced when a larger pin for its session is evicted, and
// persists across pin adoption, supersession, and migration-out (the host
// copy remains on this replica even after the device copy leaves).

import (
	"container/list"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// hostPin is one session's host-tier prefix mirror.
type hostPin struct {
	session int
	// tokens is the mirrored context length; pages its host footprint.
	tokens int
	pages  int
	// readyAt is when the eviction drain completed the mirror; a reload
	// cannot start earlier.
	readyAt simclock.Time
	// reloading marks a mirror whose h2d transfer is on the wire.
	reloading bool
	// elem is the mirror's node in the manager's recency order (budget
	// drop order under Config.HostCachePages).
	elem *list.Element
}

// HostCacheEnabled reports whether evicted pins leave reloadable mirrors.
func (m *Manager) HostCacheEnabled() bool {
	return m.cfg.HostCache && m.cfg.Offload && m.PrefixEnabled()
}

// CanMirror reports whether the host tier could hold a mirror of a
// session prefix of the given tokens: the tier is on, and the mirror alone
// fits a positive HostCachePages budget. The redundancy loop asks before
// paying for a copy that adoption would refuse.
func (m *Manager) CanMirror(tokens int) bool {
	return m.HostCacheEnabled() && m.fitsHostBudget(m.Pages(tokens))
}

// fitsHostBudget reports whether a mirror of the given pages fits the host
// budget on its own (a zero budget is unlimited).
func (m *Manager) fitsHostBudget(pages int) bool {
	return m.cfg.HostCachePages <= 0 || pages <= m.cfg.HostCachePages
}

// HostMirroredPages reports the host-memory pages currently held by
// evicted pins' mirrors. These are host pages: they never count toward
// UsedPages or against GPUPages.
func (m *Manager) HostMirroredPages() int { return m.hostMirroredPages }

// HostMirrorBytes reports the host-memory bytes the mirror tier holds —
// the byte accounting the host-memory budget manages and telemetry
// charts.
func (m *Manager) HostMirrorBytes() int64 {
	return int64(m.hostMirroredPages) * m.PageBytes()
}

// dropHostMirror releases one mirror's host pages (budget eviction,
// replacement by a larger mirror, or consumption by a reload).
func (m *Manager) dropHostMirror(hp *hostPin) {
	delete(m.hostPins, hp.session)
	m.hostPinOrder.Remove(hp.elem)
	hp.elem = nil
	m.hostMirroredPages -= hp.pages
	m.obs.Emit(m.clock.Now(), obs.KindKVMirrorDrop, m.obsReplica, -1, hp.session,
		int64(hp.tokens), int64(hp.pages), 0, 0, "")
	if m.pubMirror != nil {
		m.pubMirror(hp.session, 0)
	}
}

// enforceHostBudget drops the oldest non-reloading mirrors until the
// host tier fits Config.HostCachePages. A zero budget is unlimited.
func (m *Manager) enforceHostBudget() {
	if m.cfg.HostCachePages <= 0 {
		return
	}
	for el := m.hostPinOrder.Back(); el != nil && m.hostMirroredPages > m.cfg.HostCachePages; {
		hp := el.Value.(*hostPin)
		el = el.Prev()
		if hp.reloading {
			continue
		}
		m.dropHostMirror(hp)
	}
}

// insertMirror records a host mirror of a session's prefix — an evicted
// pin's, or a copy adopted from a peer — loadable once it lands at
// readyAt. A smaller mirror for the session is replaced (the larger
// context covers it); a mirror mid-reload, or one at least as large, is
// kept. A mirror that alone exceeds the host budget is refused outright:
// the budget would drop it, and every older mirror, at once. It reports
// whether the mirror was inserted.
func (m *Manager) insertMirror(session, tokens, pages int, readyAt simclock.Time) bool {
	if !m.HostCacheEnabled() || !m.fitsHostBudget(pages) {
		return false
	}
	if old, ok := m.hostPins[session]; ok {
		if old.reloading || old.tokens >= tokens {
			return false
		}
		m.dropHostMirror(old)
	}
	hp := &hostPin{session: session, tokens: tokens, pages: pages, readyAt: readyAt}
	hp.elem = m.hostPinOrder.PushFront(hp)
	m.hostPins[session] = hp
	m.hostMirroredPages += pages
	m.obs.Emit(m.clock.Now(), obs.KindKVMirror, m.obsReplica, -1, session,
		int64(tokens), int64(pages), 0, 0, "")
	if m.pubMirror != nil {
		m.pubMirror(session, tokens)
	}
	m.enforceHostBudget()
	return true
}

// HostMirrorTokens reports the host-mirrored prefix tokens available for a
// session: zero when no mirror exists, a reload is already in flight, or a
// device pin makes the mirror redundant. A mirror still draining counts —
// the reload estimate folds the remaining wait in.
func (m *Manager) HostMirrorTokens(session int) int {
	hp, ok := m.hostPins[session]
	if !ok || hp.reloading {
		return 0
	}
	if _, pinned := m.pins[session]; pinned {
		return 0
	}
	return hp.tokens
}

// EstimateHostReload predicts the latency to bring a session's host mirror
// back onto the device, submitted now: any remaining drain wait, plus h2d
// queueing, plus wire time — the reload side of the recompute-vs-reload
// break-even, measured from the real link backlog.
func (m *Manager) EstimateHostReload(session int, now simclock.Time) time.Duration {
	hp, ok := m.hostPins[session]
	if !ok {
		return 0
	}
	var wait time.Duration
	if hp.readyAt > now {
		wait = hp.readyAt.Sub(now)
	}
	bytes := int64(hp.pages) * m.PageBytes()
	return wait + m.h2d.QueueDelay(now.Add(wait)) + m.h2d.TransferTime(bytes)
}

// ReloadMirror books the host-to-device transfer that rematerializes a
// session's host mirror as a device pin, on the given fabric class:
// ClassReload for a returning turn's host reload, ClassReplicate for
// post-crash recovery re-pinning, from this backup's mirror, a prefix a
// crashed peer held. The transfer starts once the mirror has landed. At
// completion the pin is installed fully synced (the host copy stays
// valid, so a later eviction is free), reclaiming colder pins if needed;
// the install is dropped, keeping the mirror, when a pin for the session
// appeared mid-flight, the mirror exceeds the prefix budget, or the pool
// cannot fit it even after reclaiming every colder pin. Under a host
// budget a successful install consumes the mirror.
//
// Only ClassReload moves the reload counters: BytesReloaded counts the
// booked wire (like the other Bytes* counters) and HostReloads /
// HostReloadTokens only a successful install — a dropped install
// (HostReloadDrops) recomputes, and must not read as a win. It returns
// the completion time, the mirrored tokens, the booked bytes, and whether
// a transfer was booked.
func (m *Manager) ReloadMirror(session int, class fabric.Class, now simclock.Time) (done simclock.Time, tokens int, bytes int64, ok bool) {
	m.touch(true)
	if !m.HostCacheEnabled() {
		return 0, 0, 0, false
	}
	hp, exists := m.hostPins[session]
	if !exists || hp.reloading {
		return 0, 0, 0, false
	}
	if _, pinned := m.pins[session]; pinned {
		return 0, 0, 0, false
	}
	hp.reloading = true
	bytes = int64(hp.pages) * m.PageBytes()
	if class == fabric.ClassReload {
		m.bytesReloaded += bytes
		m.obs.Emit(now, obs.KindKVReload, m.obsReplica, -1, session,
			int64(hp.tokens), bytes, 0, 0, "")
	}
	_, done = m.ep.EnqueueH2D(class, max(now, hp.readyAt), bytes)
	crashEpoch := m.crashEpoch
	m.clock.At(done, func(t simclock.Time) {
		if m.crashEpoch != crashEpoch {
			return // the mirror died with the replica mid-flight
		}
		m.touch(true)
		hp.reloading = false
		_, pinned := m.pins[hp.session]
		installed := !pinned && hp.pages <= m.cfg.PrefixPages &&
			m.placePin(hp.session, hp.tokens, hp.pages, t)
		if class == fabric.ClassReload {
			if installed {
				m.hostReloads++
				m.hostReloadTokens += int64(hp.tokens)
			} else {
				m.hostReloadDrops++
			}
		}
		// Under a host-memory budget the install consumes the mirror: the
		// KV is back on the device, and a later eviction re-mirrors it for
		// free. Unbudgeted tiers keep the historical keep-forever behavior.
		if installed && m.cfg.HostCachePages > 0 {
			m.dropHostMirror(hp)
		}
	})
	return done, hp.tokens, bytes, true
}
