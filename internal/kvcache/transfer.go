package kvcache

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/fabric"
	"repro/internal/request"
	"repro/internal/simclock"
)

// BackgroundSync implements the write-through policy with synchronous
// chunked writing (§5.1-5.2). Called at the start of each compute
// iteration with the iteration's estimated duration, it pulls dirty pages
// from resident requests and books device-to-host writes sized to complete
// within that interval, so writes never delay scheduling.
//
// Under PriorityWrites, requests with larger client buffers sync first
// (they are the likeliest preemption victims, §5.2); otherwise the write
// queue is FIFO by admission order.
//
// A chunk's landing moves its pages from inFlight to synced, and nothing
// but Preempt, ReleaseAsPrefix and EstimateEvict tells the two apart, so a
// landing is not a clock event: it joins the manager's landing FIFO with
// a sequence number reserved on the clock, and those readers settle the
// FIFO first (see settle). BackgroundSync settles too, so the FIFO holds
// at most about one iteration's landings.
func (m *Manager) BackgroundSync(now simclock.Time, iterDur time.Duration) {
	m.touch(true)
	if !m.cfg.WriteThrough {
		return
	}
	m.settle()
	m.sync(now, iterDur, simclock.Key{})
}

// SyncAsOf is BackgroundSync for the launch a fused decode run applies
// lazily at pos.At, where its iteration at pos completed: it settles the
// landings due as of pos, not as of the clock, reads the link and the
// clients' buffers as of pos.At, and keys each landing it books by pos.At
// and the run's tag (pos.Seq; see simclock.Key).
func (m *Manager) SyncAsOf(pos simclock.Key, iterDur time.Duration) {
	if !m.cfg.WriteThrough {
		return
	}
	m.settleAsOf(pos)
	m.sync(pos.At, iterDur, simclock.Key{Sched: pos.At, Seq: pos.Seq, Run: true})
}

// sync books this iteration's write-through chunks at now. run is the
// key template of a fused run's lazy booking; the zero Key reserves a
// sequence number on the clock for each landing instead.
func (m *Manager) sync(now simclock.Time, iterDur time.Duration, run simclock.Key) {
	// Budget: bytes the link can move during this iteration, starting from
	// its current backlog. With chunked writing we never book past the end
	// of the iteration; without it we book everything dirty immediately
	// (the engine then pays the boundary stall in IterBoundaryStall).
	var budget int64
	if m.cfg.ChunkedWriting {
		avail := iterDur - m.d2h.QueueDelay(now)
		if avail <= 0 {
			return
		}
		budget = int64(avail.Seconds() * m.d2h.BytesPerSec())
	} else {
		budget = 1 << 62
	}

	order := m.syncCandidates(now)
	pageBytes := m.PageBytes()
	for _, e := range order {
		if budget < pageBytes {
			break
		}
		dirty := e.dirtyPages()
		if dirty <= 0 {
			continue
		}
		chunk := int(budget / pageBytes)
		if chunk > dirty {
			chunk = dirty
		}
		bytes := int64(chunk) * pageBytes
		budget -= bytes
		e.inFlight += chunk
		_, done := m.ep.EnqueueD2H(fabric.ClassSync, now, bytes)
		m.syncChunks++
		m.bytesSynced += bytes
		if n := len(m.landings); n > 0 && done < m.landings[n-1].key.At {
			panic(fmt.Sprintf("kvcache: sync landing at %v before the previous one at %v", done, m.landings[n-1].key.At))
		}
		key := run
		if !run.Run {
			key = m.clock.Reserve()
		}
		key.At = done
		m.landings = append(m.landings, landing{e: e, epoch: e.epoch, chunk: chunk, key: key})
	}
}

// landing is one booked sync chunk: once an event at key would have
// fired, its pages are synced, unless a preemption or discard bumped the
// entry's epoch since the booking.
type landing struct {
	e     *entry
	epoch uint64
	chunk int
	key   simclock.Key
}

// settle applies every landing whose event would have fired by now.
func (m *Manager) settle() { m.settleAsOf(m.clock.Position()) }

// settleAsOf applies every landing whose event would have fired by the
// position pos, in booking order. The device-to-host link is FIFO, so
// landings are booked in key order and the fired ones are a prefix of the
// queue.
func (m *Manager) settleAsOf(pos simclock.Key) {
	n := 0
	for _, l := range m.landings {
		if !l.key.FiredBy(pos) {
			break
		}
		if l.e.epoch == l.epoch {
			l.e.inFlight -= l.chunk
			l.e.synced += l.chunk
		}
		n++
	}
	if n > 0 {
		k := copy(m.landings, m.landings[n:])
		clear(m.landings[k:])
		m.landings = m.landings[:k]
	}
}

// PendingSync reports the latest sync landing still to come at or before
// deadline, and whether any lands after it. A landing used to be a clock
// event of its own and could be a clock's last one, as when a crash
// cancels the iteration but not the writes booked at its start; the
// cluster's drain moves the clock on to it, so a run ends where it did.
func (m *Manager) PendingSync(deadline simclock.Time) (last simclock.Time, beyond bool) {
	m.touch(false)
	for _, l := range m.landings {
		if l.key.At > deadline {
			return last, true
		}
		last = l.key.At
	}
	return last, false
}

// syncCandidates lists resident entries in write-queue order, reading the
// clients' buffers as of now. The returned slice aliases a per-manager
// scratch buffer — it runs once per compute iteration, so an allocation
// here would dominate the heap profile of million-request traces — and is
// only valid until the next call.
func (m *Manager) syncCandidates(now simclock.Time) []*entry {
	out := m.syncScratch[:0]
	for _, e := range m.syncOrder {
		if e.res == ResGPU && e.dirtyPages() > 0 {
			out = append(out, e)
		}
	}
	if m.cfg.PriorityWrites && len(out) > 1 {
		slices.SortStableFunc(out, func(a, b *entry) int {
			return cmp.Compare(b.req.BufferLenAt(now), a.req.BufferLenAt(now))
		})
	}
	m.syncScratch = out
	return out
}

// IterBoundaryStall reports how long the engine must wait at an iteration
// boundary for outstanding write-through traffic to drain. With chunked
// writing this is always zero (writes were sized to fit); without it, the
// asynchronous writes create the scheduling dependency of §5.2.
func (m *Manager) IterBoundaryStall(now simclock.Time) time.Duration {
	if !m.cfg.WriteThrough || m.cfg.ChunkedWriting {
		return 0
	}
	return m.d2h.QueueDelay(now)
}

// Preempt begins evicting a resident request. With offload enabled, dirty
// pages are booked on the device-to-host link and the host copy completes
// at the returned time; already-synchronized pages are reclaimed
// immediately under load-evict overlap. With offload disabled the KV is
// discarded instantly and resumption must recompute.
//
// The EvictDone callback fires when the request's pages have fully left
// the device.
func (m *Manager) Preempt(r *request.Request, now simclock.Time) (simclock.Time, error) {
	m.touch(true)
	m.settle()
	e, ok := m.entries[r.ID]
	if !ok || e.res != ResGPU {
		return 0, fmt.Errorf("kvcache: preempting non-resident request %d", r.ID)
	}
	if !m.cfg.Offload {
		m.Discard(r)
		m.evictions++
		if m.cb.EvictDone != nil {
			m.cb.EvictDone(r, now)
		}
		return now, nil
	}

	// In-flight sync chunks are treated as dirty: their completions are
	// invalidated and the bytes retransmit as part of the eviction. This
	// is conservative (slightly overstates eviction traffic).
	e.epoch++
	dirty := e.pages - e.synced
	e.inFlight = 0
	e.res = ResEvicting
	m.evictions++

	if m.cfg.LoadEvictOverlap {
		// Synchronized pages reclaim immediately.
		reclaim := e.synced
		e.gpuHeld -= reclaim
		m.free += reclaim
	}

	if dirty == 0 {
		m.finishEvict(e, now)
		return now, nil
	}
	bytes := int64(dirty) * m.PageBytes()
	m.bytesEvicted += bytes
	_, done := m.ep.EnqueueD2H(fabric.ClassEvict, now, bytes)
	epoch := e.epoch
	m.clock.At(done, func(t simclock.Time) {
		if e.epoch != epoch {
			return
		}
		m.touch(true)
		e.synced = e.pages
		m.finishEvict(e, t)
	})
	return done, nil
}

// finishEvict releases any still-held pages and notifies the engine.
func (m *Manager) finishEvict(e *entry, now simclock.Time) {
	m.free += e.gpuHeld
	e.gpuHeld = 0
	e.synced = e.pages
	e.res = ResHost
	if m.cb.EvictDone != nil {
		m.cb.EvictDone(e.req, now)
	}
}

// StartLoad books the host-to-device transfer that resumes a fully evicted
// request. Pages are claimed at call time, so the caller must check
// CanAllocate first. Without load-evict overlap the transfer additionally
// waits for all in-flight evictions to drain. LoadDone fires at completion.
func (m *Manager) StartLoad(r *request.Request, now simclock.Time) (simclock.Time, error) {
	m.touch(true)
	e, ok := m.entries[r.ID]
	if !ok || e.res != ResHost {
		return 0, fmt.Errorf("kvcache: loading request %d with residency %v", r.ID, m.Residency(r))
	}
	if e.pages > m.free {
		return 0, fmt.Errorf("kvcache: loading request %d needs %d pages, %d free", r.ID, e.pages, m.free)
	}
	m.free -= e.pages
	e.gpuHeld = e.pages
	e.res = ResLoading
	m.loads++

	start := now
	if !m.cfg.LoadEvictOverlap && m.d2h.BusyUntil() > start {
		start = m.d2h.BusyUntil()
	}
	bytes := int64(e.pages) * m.PageBytes()
	m.bytesLoaded += bytes
	_, done := m.ep.EnqueueH2D(fabric.ClassLoad, start, bytes)
	epoch := e.epoch
	m.clock.At(done, func(t simclock.Time) {
		if e.epoch != epoch {
			return
		}
		m.touch(true)
		e.res = ResGPU
		// The host copy remains valid: only pages appended after resume
		// are dirty (the incremental-update benefit of write-through).
		e.synced = e.pages
		if m.cb.LoadDone != nil {
			m.cb.LoadDone(e.req, t)
		}
	})
	return done, nil
}

// HostBytes reports the size of a request's host copy (0 when none).
func (m *Manager) HostBytes(r *request.Request) int64 {
	e, ok := m.entries[r.ID]
	if !ok || (e.res != ResHost && e.res != ResLoading) {
		return 0
	}
	return int64(e.pages) * m.PageBytes()
}

// EstimateLoad predicts the latency to resume a request from host memory
// right now: link queueing plus wire time (the t_load_queueing + t_load of
// §4.2.3). For a still-resident request it predicts the cost of a future
// load of its full current context.
func (m *Manager) EstimateLoad(r *request.Request, now simclock.Time) time.Duration {
	m.touch(false)
	e, ok := m.entries[r.ID]
	if !ok {
		return 0
	}
	bytes := int64(e.pages) * m.PageBytes()
	delay := m.h2d.QueueDelay(now)
	if !m.cfg.LoadEvictOverlap {
		if d := m.d2h.QueueDelay(now); d > delay {
			delay = d
		}
	}
	return delay + m.h2d.TransferTime(bytes)
}

// EstimateEvict predicts the latency to fully evict a resident request
// right now: queueing plus wire time for its dirty pages (near zero under
// write-through once the background sync has caught up).
func (m *Manager) EstimateEvict(r *request.Request, now simclock.Time) time.Duration {
	m.touch(false)
	m.settle()
	e, ok := m.entries[r.ID]
	if !ok || e.res != ResGPU {
		return 0
	}
	if !m.cfg.Offload {
		return 0
	}
	dirty := e.pages - e.synced
	bytes := int64(dirty) * m.PageBytes()
	return m.d2h.QueueDelay(now) + m.d2h.TransferTime(bytes)
}

// Stats reports cumulative operation counts for reporting and tests.
type Stats struct {
	Evictions, Loads, Discards, SyncChunks int64
	BytesEvicted, BytesLoaded, BytesSynced int64

	// Prefix-pin residency counters (see prefix.go). PinnedPages and
	// PeakPinnedPages are pool pages held by session prefix pins — the
	// memory the prefix cache charges that the old compute-side model
	// pretended was free.
	PrefixPins, PrefixEvictions, PrefixAdoptions int64
	PrefixBytesDrained                           int64
	MigratedInTokens, MigratedOutTokens          int64
	// MigratedOutBytes is the wire size of every pin staked for migration
	// out of this replica (routing migrations, pre-warm, drain hand-off) —
	// the kvcache-side mirror of the fabric's interconnect classes.
	MigratedOutBytes             int64
	MigrationDrops               int64
	PinnedPages, PeakPinnedPages int

	// PoolPages is the device pool capacity — the ceiling no residency
	// counter may ever cross (the invariant suite checks PeakPinnedPages
	// against it).
	PoolPages int

	// Host-tier prefix cache counters (see hostcache.go). HostMirroredPages
	// is the current host-memory footprint of evicted pins' mirrors — host
	// pages only, never part of the GPU pool accounting. HostReloads /
	// HostReloadTokens count mirrors that actually landed as pins (reloaded
	// instead of recomputed); HostReloadDrops counts reloads whose pin
	// could not be installed when the transfer completed (those turns
	// recompute after all); BytesReloaded totals the booked reload wire
	// traffic, dropped installs included.
	HostMirroredPages int
	// HostMirrorBytes is HostMirroredPages in bytes — the quantity the
	// HostCachePages budget bounds and the telemetry series charts.
	HostMirrorBytes                int64
	HostReloads, HostReloadTokens  int64
	HostReloadDrops, BytesReloaded int64
}

// Stats returns cumulative counters.
func (m *Manager) Stats() Stats {
	m.touch(false)
	return Stats{
		Evictions: m.evictions, Loads: m.loads, Discards: m.discards,
		SyncChunks: m.syncChunks, BytesEvicted: m.bytesEvicted,
		BytesLoaded: m.bytesLoaded, BytesSynced: m.bytesSynced,
		PrefixPins: m.prefixPins, PrefixEvictions: m.prefixEvictions,
		PrefixAdoptions: m.prefixAdopts, PrefixBytesDrained: m.prefixBytesDrained,
		MigratedInTokens: m.migratedInTokens, MigratedOutTokens: m.migratedOutTokens,
		MigratedOutBytes: m.migratedOutBytes,
		MigrationDrops:   m.migrationDrops,
		PinnedPages:      m.pinnedPages, PeakPinnedPages: m.peakPinnedPages,
		PoolPages:         m.cfg.GPUPages,
		HostMirroredPages: m.hostMirroredPages,
		HostMirrorBytes:   m.HostMirrorBytes(),
		HostReloads:       m.hostReloads, HostReloadTokens: m.hostReloadTokens,
		HostReloadDrops: m.hostReloadDrops, BytesReloaded: m.bytesReloaded,
	}
}
