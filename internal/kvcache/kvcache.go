// Package kvcache implements the paper's hierarchical KV cache manager
// (§5): a paged GPU memory pool backed by host memory, with a write-through
// policy that mirrors freshly generated KV entries to the host in the
// background (§5.1), synchronous chunked writing that sizes background
// transfers to fit inside compute intervals (§5.2), and load-evict overlap
// that reclaims already-synchronized pages immediately on preemption (§5.3).
//
// Each policy is a switch so the Table 2 ablations (w/o offload, w/o
// write-through, w/o evict-load overlap) run on the same code path.
//
// A warmed manager allocates nothing per request: entries, prefix pins and
// host mirrors come from per-manager free lists, the pin and mirror
// recency orders are intrusive lists, and resume loads complete through a
// FIFO (recycle.go). A recycled entry keeps its epoch, and every
// retirement bumps it, so a Handle, sync landing or load booked for an
// earlier occupant never matches the next one.
package kvcache

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/simclock"
)

// Policy selects the memory-management feature set: the Table 2
// ablation switches and the host-tier prefix cache. The engine's
// KVPolicy is this type.
type Policy struct {
	// Offload enables host offload on preemption. When false, preemption
	// discards the KV cache and resumption must recompute (the Table 2
	// "w/o Offload" ablation and the recompute-style baselines).
	Offload bool

	// WriteThrough mirrors generated KV to host memory continuously in the
	// background. When false (write-back), all resident pages are dirty at
	// preemption time and must be transferred then.
	WriteThrough bool

	// ChunkedWriting sizes background writes to complete within the next
	// compute interval. When false, write-through still happens but the
	// engine must stall at iteration boundaries until outstanding writes
	// drain (the scheduling dependency of §5.2).
	ChunkedWriting bool

	// LoadEvictOverlap frees already-synchronized pages immediately at
	// preemption and lets loads proceed concurrently with evictions. When
	// false, pages free only when the whole eviction completes and loads
	// serialize behind in-flight evictions.
	LoadEvictOverlap bool

	// PriorityWrites orders background sync by descending client buffer
	// (requests most likely to be preempted sync first, §5.2); when false
	// the write queue is FIFO by request admission.
	PriorityWrites bool

	// HostCache extends the pin lifecycle past eviction (see hostcache.go):
	// an evicted pin whose dirty pages finished draining stays behind as a
	// host-mirrored prefix that a later session turn can reload over the
	// host-to-device link instead of recomputing. Host-mirrored pages live
	// in host memory only — they are never charged against GPUPages.
	// Requires Offload (without a host tier there is nothing to mirror
	// into; the flag is then inert). Off by default: it is an extension
	// beyond the paper's §5 manager, so the Table 2 ablations are
	// unaffected.
	HostCache bool

	// HostCachePages budgets the host memory the mirror tier may hold, in
	// pages. Zero keeps the historical unlimited behavior: mirrors persist
	// until replaced by a larger one. A positive budget turns the tier
	// into a bounded spill buffer: the oldest mirrors drop when the budget
	// overflows, a mirror larger than the whole budget is never taken in,
	// and a mirror is consumed (its host pages freed) once a reload
	// successfully re-pins it on the device.
	HostCachePages int
}

// PageTokens is the page granularity in tokens (SGLang/vLLM-style paged
// attention blocks).
const PageTokens = 16

// Config selects the memory-management policies and pool geometry.
type Config struct {
	Policy

	// GPUPages is the KV pool capacity in pages.
	GPUPages int

	// BytesPerToken is the model's KV footprint per context token.
	BytesPerToken int64

	// PrefixPages caps the pool pages that session prefix pins may occupy
	// (see prefix.go). Pinned prefixes are real page-pool citizens: they
	// are charged against GPUPages, evicted LRU under pressure, and
	// reclaimed before any admission stall. Zero disables prefix pinning.
	PrefixPages int
}

// Validate reports an error for non-positive geometry.
func (c Config) Validate() error {
	switch {
	case c.GPUPages <= 0:
		return fmt.Errorf("kvcache: non-positive pool size %d", c.GPUPages)
	case c.BytesPerToken <= 0:
		return fmt.Errorf("kvcache: non-positive bytes/token %d", c.BytesPerToken)
	case c.PrefixPages < 0:
		return fmt.Errorf("kvcache: negative prefix page budget %d", c.PrefixPages)
	case c.PrefixPages > c.GPUPages:
		return fmt.Errorf("kvcache: prefix budget %d exceeds pool %d", c.PrefixPages, c.GPUPages)
	case c.HostCachePages < 0:
		return fmt.Errorf("kvcache: negative host cache budget %d", c.HostCachePages)
	}
	return nil
}

// Residency describes where a request's KV cache lives.
type Residency int

const (
	// ResNone: no KV anywhere (fresh, discarded, or finished).
	ResNone Residency = iota
	// ResGPU: resident on the device.
	ResGPU
	// ResEvicting: leaving the device; partially freed.
	ResEvicting
	// ResHost: fully off the device with a complete host copy.
	ResHost
	// ResLoading: host-to-device transfer in progress.
	ResLoading
)

var resNames = [...]string{"none", "gpu", "evicting", "host", "loading"}

func (r Residency) String() string {
	if int(r) < len(resNames) {
		return resNames[r]
	}
	return fmt.Sprintf("residency(%d)", int(r))
}

// entry is the per-request cache state.
type entry struct {
	req *request.Request

	res Residency

	// pages is the total page count for the request's current context.
	pages int
	// synced counts pages with a clean host mirror.
	synced int
	// inFlight counts pages booked by background sync whose landing has
	// not been settled yet (see settle): still on the device-to-host wire,
	// or landed since the last settle. Only the readers that settle first
	// tell them apart from synced pages; dirtyPages counts neither.
	inFlight int
	// gpuHeld counts pages currently charged against the GPU pool (during
	// eviction this drains; during load it grows at load start).
	gpuHeld int

	// epoch invalidates callbacks from transfers issued before a
	// preemption or discard.
	epoch uint64
}

// Callbacks notify the serving engine of asynchronous completions.
type Callbacks struct {
	// EvictDone fires when a preempted request's pages have fully left the
	// device (its host copy is complete and usable for a later load).
	EvictDone func(r *request.Request, now simclock.Time)
	// LoadDone fires when a resuming request's KV is fully resident.
	LoadDone func(r *request.Request, now simclock.Time)
	// PinDrained fires when an evicted prefix pin's dirty pages finish
	// draining to the host and their pool pages free (memory that may
	// unblock a stalled admission or load).
	PinDrained func(now simclock.Time)
	// Touch, when set, fires before the manager reads state a fused decode
	// run changes (write false: free pages, a resident request's pages, the
	// sync landings and the device-to-host link) and before every change
	// it makes (write true), so the engine first applies the run's
	// iterations due by now and, before a change, ends the run at the
	// iteration in flight (internal/engine). Pin and mirror reads a run
	// cannot change do not fire it; neither do the decode step's own
	// CheckGrowth and GrowOne.
	Touch func(write bool)
}

// touch fires the Touch callback.
func (m *Manager) touch(write bool) {
	if m.cb.Touch != nil {
		m.cb.Touch(write)
	}
}

// Manager is the hierarchical KV cache manager.
type Manager struct {
	cfg   Config
	clock *simclock.Clock

	// ep is the replica's handle on the transfer fabric: every booking —
	// sync, evict, load, reload — goes through it so the fabric's per-class
	// accounting sees all traffic. d2h and h2d cache the endpoint's host
	// links for read-only estimation (queue delay, wire time).
	ep  *fabric.Endpoint
	d2h *gpu.Link // eviction / write-through direction
	h2d *gpu.Link // load direction
	cb  Callbacks

	free    int
	entries map[int]*entry

	// syncOrder preserves admission order for FIFO write-through;
	// syncScratch is the reused candidate buffer of syncCandidates.
	syncOrder   []*entry
	syncScratch []*entry
	// landings is the FIFO of booked sync chunks not yet settled (see
	// BackgroundSync).
	landings []landing
	// h2dDone and d2hDone are the booked host-link completions not yet
	// fired, one queue per link direction (see book in recycle.go).
	h2dDone, d2hDone completionQueue

	// Session prefix pins (see prefix.go).
	pins            map[int]*pin
	pinOrder        pinLRU
	pinnedPages     int
	peakPinnedPages int

	// Host-tier prefix mirrors (see hostcache.go). hostPinOrder keeps
	// mirror recency (front = most recently created or refreshed) for the
	// HostCachePages budget's drop order.
	hostPins          map[int]*hostPin
	hostPinOrder      hostPinLRU
	hostMirroredPages int

	// Free lists of retired entries, pins and host mirrors (recycle.go).
	entryFree   []*entry
	pinFree     []*pin
	hostPinFree []*hostPin

	// obs is the optional flight recorder (nil = off, free); obsReplica
	// is the replica id stamped on emitted events.
	obs        *obs.Recorder
	obsReplica int

	// pubPin / pubMirror publish pin and host-mirror lifecycle changes to
	// the cluster's prefix index and pin-holder table (nil = nobody
	// listens, free). pubPin fires with the new PeekPrefix value after
	// every transition that changes it — insert, eviction, adoption,
	// supersession, migration staking and its abort, crash — with tokens 0
	// when the prefix leaves the device, so a subscriber can keep an exact
	// holder set. pubMirror is the host-tier analogue.
	pubPin    func(session, tokens int)
	pubMirror func(session, tokens int)

	// crashEpoch is the manager's generation counter: Crash bumps it, and
	// completions that outlive per-entry epochs (pin eviction drains, host
	// reloads) record it so a transfer booked before a crash cannot mutate
	// the post-crash (backfilled) manager state.
	crashEpoch uint64

	// stats
	evictions, loads, discards, syncChunks    int64
	bytesEvicted, bytesLoaded, bytesSynced    int64
	prefixPins, prefixEvictions, prefixAdopts int64
	prefixBytesDrained                        int64
	migratedInTokens, migratedOutTokens       int64
	migratedOutBytes                          int64
	migrationDrops                            int64
	hostReloads, hostReloadTokens             int64
	hostReloadDrops, bytesReloaded            int64
}

// New constructs a manager on the replica's fabric endpoint, whose host
// link pair (device-to-host and host-to-device; PCIe is full duplex) must
// already be attached.
func New(cfg Config, clock *simclock.Clock, ep *fabric.Endpoint, cb Callbacks) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil || ep == nil {
		return nil, fmt.Errorf("kvcache: nil clock or fabric endpoint")
	}
	if !ep.HostAttached() {
		return nil, fmt.Errorf("kvcache: fabric endpoint %d has no host links", ep.Replica())
	}
	return &Manager{
		cfg:        cfg,
		clock:      clock,
		ep:         ep,
		d2h:        ep.D2H(),
		h2d:        ep.H2D(),
		cb:         cb,
		free:       cfg.GPUPages,
		entries:    make(map[int]*entry),
		pins:       make(map[int]*pin),
		hostPins:   make(map[int]*hostPin),
		obsReplica: -1,
	}, nil
}

// SetObs installs the flight recorder, stamping events with the given
// replica id. Pure observation: cache behavior is identical with or
// without it. In a cluster rec is the recorder of the replica's shard
// clock (the engine passes its own sink through), so every write to it
// comes from the goroutine that runs that clock.
func (m *Manager) SetObs(rec *obs.Recorder, replica int) {
	m.obs = rec
	m.obsReplica = replica
}

// SetPrefixPublisher installs the pin and host-mirror publication hooks
// (the cluster's prefix index and pin-holder table). Both are optional
// (nil = no publication); installation happens before the run starts, so
// the subscriber sees every lifecycle transition. The hooks
// run synchronously inside cache mutations — propagation delay and drops
// are the subscriber's model, not the manager's.
func (m *Manager) SetPrefixPublisher(pin, mirror func(session, tokens int)) {
	m.pubPin = pin
	m.pubMirror = mirror
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// PageBytes reports the size of one page in bytes.
func (m *Manager) PageBytes() int64 {
	return PageTokens * m.cfg.BytesPerToken
}

// Pages reports how many pages a context of the given tokens occupies.
func (m *Manager) Pages(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + PageTokens - 1) / PageTokens
}

// FreePages reports unallocated pool pages.
func (m *Manager) FreePages() int {
	m.touch(false)
	return m.free
}

// TotalPages reports the pool capacity.
func (m *Manager) TotalPages() int { return m.cfg.GPUPages }

// UsedPages reports allocated pool pages.
func (m *Manager) UsedPages() int {
	m.touch(false)
	return m.cfg.GPUPages - m.free
}

// Residency reports where a request's KV lives.
func (m *Manager) Residency(r *request.Request) Residency {
	e, ok := m.entries[r.ID]
	if !ok {
		return ResNone
	}
	return e.res
}

// CanAllocate reports whether a context of the given tokens fits in the
// free pool right now.
func (m *Manager) CanAllocate(tokens int) bool {
	m.touch(false)
	return m.Pages(tokens) <= m.free
}

// AllocateResident claims pages for a request entering the device with
// freshly computed KV (prefill or recompute-resume). All pages start dirty
// under write-through and unsynced under write-back.
func (m *Manager) AllocateResident(r *request.Request, contextTokens int) error {
	return m.AllocateWithPrefix(r, contextTokens, 0)
}

// Handle is a running request's residency handle: its KV entry and the
// entry's epoch when the handle was taken. Every transition that takes
// the entry off the device — Preempt, Discard, ReleaseAsPrefix, Crash —
// bumps that epoch, so a handle taken while the request was resident
// reports it non-resident from then on, even once a load brings the same
// entry back: the engine takes a fresh handle each time a request enters
// its running set. The zero Handle is never resident.
type Handle struct {
	e     *entry
	epoch uint64
}

// Handle probes the request's entry and returns its residency handle, for
// the decode step's per-token CheckGrowth and GrowOne.
func (m *Manager) Handle(r *request.Request) Handle {
	e, ok := m.entries[r.ID]
	if !ok {
		return Handle{}
	}
	return Handle{e: e, epoch: e.epoch}
}

// resident returns the handle's entry while the handle is current and the
// request's KV is on the device, nil otherwise.
func (h Handle) resident() *entry {
	if h.e == nil || h.e.epoch != h.epoch || h.e.res != ResGPU {
		return nil
	}
	return h.e
}

// CheckGrowth is the decode step's per-token check, a read of the
// handle's entry: it reports whether the request is resident on the
// device and, if so, whether appending one token to its context needs a
// new page (claimed with GrowOne). A resident request that needs no page
// takes the token as is.
func (m *Manager) CheckGrowth(h Handle) (resident, needPage bool) {
	e := h.resident()
	if e == nil {
		return false, false
	}
	return true, m.Pages(e.req.ContextLen()+1) > e.pages
}

// PageRoom reports how many more tokens the handle's request can append
// before its next one needs a new page, or -1 when it is not resident: a
// fused decode run plans its page growth from it.
func (m *Manager) PageRoom(h Handle) int {
	e := h.resident()
	if e == nil {
		return -1
	}
	return e.pages*PageTokens - e.req.ContextLen()
}

// GrowOne extends a resident request's allocation for one appended token,
// claiming a new page when the context crosses a page boundary. It reports
// false when the request is not resident or the pool is exhausted, which
// signals the engine's OOM path.
func (m *Manager) GrowOne(h Handle) bool {
	e := h.resident()
	if e == nil {
		return false
	}
	if m.Pages(e.req.ContextLen()+1) <= e.pages {
		return true
	}
	if m.free < 1 {
		return false
	}
	m.free--
	e.pages++
	e.gpuHeld++
	return true
}

// dirtyPages reports pages without a clean host mirror and not on the wire.
func (e *entry) dirtyPages() int { return e.pages - e.synced - e.inFlight }

// Discard frees everything a request holds on the device and forgets its
// host copy (request finished, or preemption with offload disabled).
func (m *Manager) Discard(r *request.Request) {
	m.touch(true)
	e, ok := m.entries[r.ID]
	if !ok {
		return
	}
	m.free += e.gpuHeld
	e.gpuHeld = 0
	e.pages = 0
	e.synced = 0
	e.inFlight = 0
	e.res = ResNone
	e.epoch++
	m.discards++
	delete(m.entries, r.ID)
	m.dropFromSyncOrder(e)
	m.freeEntry(e)
}

// dropFromSyncOrder removes an entry from the write-through queue.
func (m *Manager) dropFromSyncOrder(e *entry) {
	for i, se := range m.syncOrder {
		if se == e {
			m.syncOrder = append(m.syncOrder[:i], m.syncOrder[i+1:]...)
			break
		}
	}
}
