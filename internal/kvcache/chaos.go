package kvcache

// Chaos support: the cache-side half of replica crash recovery. Crash
// wipes the device instantly (every residency, pin, and host mirror dies
// with the replica) and bumps the crash epoch so completions of
// transfers booked before the crash cannot resurrect state on the
// backfilled manager. AdoptMirror and ReloadMirror on ClassReplicate are
// the pin-redundancy mechanics: a backup replica adopts host-tier copies
// of a peer's pinned prefixes, and after the peer crashes, re-pins them
// from its own mirror so retried session turns reload instead of
// recomputing.

import "repro/internal/simclock"

// Crash destroys every byte the manager holds: request residencies are
// invalidated (their epochs bump, killing in-flight sync/evict/load
// completions), all prefix pins and host mirrors vanish with index
// unpublications, and the pool resets to empty. Cumulative stats are
// preserved — the replica's history happened. It reports how many pins
// and mirrors were lost, for the crash event's payload. The sync landing
// FIFO stays: every landing in it is stale now, so settling drops it, but
// PendingSync still reports its instant, where its event used to leave
// the clock.
func (m *Manager) Crash() (pinsLost, mirrorsLost int) {
	m.touch(true)
	for _, e := range m.entries {
		e.epoch++
		e.gpuHeld = 0
		e.res = ResNone
	}
	m.entries = make(map[int]*entry)
	m.syncOrder = nil
	// Walk the recency lists, not the maps: unpublication order must be
	// deterministic for the index traffic ledger and event stream.
	for p := m.pinOrder.front; p != nil; {
		next := p.next
		m.removePin(p)
		m.freePin(p)
		p = next
		pinsLost++
	}
	for hp := m.hostPinOrder.front; hp != nil; {
		next := hp.next
		m.dropHostMirror(hp)
		hp = next
		mirrorsLost++
	}
	m.free = m.cfg.GPUPages
	m.crashEpoch++
	return pinsLost, mirrorsLost
}

// AbortMigrateOut un-stakes a pin whose interconnect transfer was torn
// down mid-flight (a link flap): the pin returns to normal service — it
// hits, adopts, and evicts again — and its renewed availability is
// republished to the index. Byte counters are untouched: migratedOutBytes
// counts at stake time, mirroring the fabric's book-time accounting, and
// the aborted transfer's bytes were genuinely booked on the wire.
func (m *Manager) AbortMigrateOut(session int) {
	m.touch(true)
	p, ok := m.pins[session]
	if !ok || !p.migrating {
		return
	}
	p.migrating = false
	if m.pubPin != nil {
		m.pubPin(p.session, p.tokens)
	}
}

// MirrorTokens reports the raw host-mirrored prefix tokens for a session —
// unlike HostMirrorTokens it ignores device pins and in-flight reloads, so
// the redundancy loop can tell whether a backup already holds a copy.
func (m *Manager) MirrorTokens(session int) int {
	hp, ok := m.hostPins[session]
	if !ok {
		return 0
	}
	return hp.tokens
}

// AdoptMirror installs a host-tier mirror copied in from a peer replica
// (the receiving half of a redundancy replication): usable once the wire
// transfer lands at readyAt, budget-enforced like any other mirror. A
// mirror at least as large, or one mid-reload, is kept instead. It
// reports whether the copy was adopted.
func (m *Manager) AdoptMirror(session, tokens int, readyAt simclock.Time) bool {
	m.touch(true)
	if session == 0 || tokens <= 0 {
		return false
	}
	return m.insertMirror(session, tokens, m.Pages(tokens), readyAt)
}
