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
func (m *Manager) BackgroundSync(now simclock.Time, iterDur time.Duration) {
	if !m.cfg.WriteThrough {
		return
	}
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

	order := m.syncCandidates()
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
		epoch := e.epoch
		ent := e
		_, done := m.ep.EnqueueD2H(fabric.ClassSync, now, bytes)
		m.syncChunks++
		m.bytesSynced += bytes
		m.clock.At(done, func(t simclock.Time) {
			if ent.epoch != epoch {
				return // invalidated by preemption or discard
			}
			ent.inFlight -= chunk
			ent.synced += chunk
		})
	}
}

// syncCandidates lists resident entries in write-queue order. The returned
// slice aliases a per-manager scratch buffer — it runs once per compute
// iteration, so an allocation here would dominate the heap profile of
// million-request traces — and is only valid until the next call.
func (m *Manager) syncCandidates() []*entry {
	out := m.syncScratch[:0]
	for _, e := range m.syncOrder {
		if e.res == ResGPU && e.dirtyPages() > 0 {
			out = append(out, e)
		}
	}
	if m.cfg.PriorityWrites && len(out) > 1 {
		slices.SortStableFunc(out, func(a, b *entry) int {
			return cmp.Compare(b.req.BufferLen(), a.req.BufferLen())
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
