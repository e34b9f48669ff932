// Package fabric is the simulator's unified transfer fabric: a Topology of
// named gpu.Link queues — per-replica host PCIe pairs plus a replica
// interconnect — and a TransferScheduler that books every KV byte movement
// (write-through sync, eviction drains, resume loads, host-tier prefix
// reloads, routing migrations, pre-warm, drain hand-off) over those links
// with FIFO contention and per-class byte/busy accounting. It replaces the
// private link mesh the cluster used to own and the raw link pair inside
// the KV cache manager, so every transfer in the simulation contends on
// one explicitly modelled set of wires.
//
// Two interconnect layouts are supported. FullMesh gives every directed
// replica pair a dedicated link, so transfers between different pairs never
// contend — the infinite-parallelism interconnect earlier revisions
// hard-coded, kept as the degenerate config the equivalence tests pin.
// SharedNIC gives each replica one egress and one ingress NIC link,
// optionally behind a single shared switch link: every transfer out of a
// replica crosses its egress NIC and every transfer into one crosses its
// ingress NIC, so concurrent migrations, pre-warms, and drain hand-offs
// that share an endpoint serialize — the bandwidth-aware contention the
// cost-modelled migration policy consults before committing a session's KV
// to the wire.
//
// A topology costs O(replicas + pairs used), not O(replicas²): host links,
// NICs and the switch are built up front, and a replica pair's path is
// resolved on its first use — under FullMesh, that is when the pair's
// dedicated link is created. Only the cluster coordinator resolves pairs
// (it alone books and prices interconnect transfers), so the lazy build
// needs no locking.
//
// A transfer over a multi-link path is circuit-style: it claims every link
// on the path from the instant the last of them drains and holds all of
// them for the wire time of the path's bottleneck link. For single-link
// paths this reduces exactly to gpu.Link.Enqueue, which is what keeps the
// refactor byte-identical to the old per-link booking.
package fabric

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Kind selects the interconnect layout of a Topology.
type Kind string

// Interconnect layouts.
const (
	// FullMesh: a dedicated link per directed replica pair, created on the
	// pair's first use. No contention between different pairs.
	FullMesh Kind = "full-mesh"
	// SharedNIC: one egress and one ingress NIC link per replica, behind an
	// optional shared switch. Transfers sharing an endpoint serialize.
	SharedNIC Kind = "shared-nic"
)

// Kinds lists the supported interconnect layouts.
func Kinds() []Kind { return []Kind{FullMesh, SharedNIC} }

// Spec describes an interconnect layout. Host links are not part of the
// spec: replicas attach them with their own device's PCIe bandwidth.
type Spec struct {
	// Kind selects the layout (default FullMesh).
	Kind Kind

	// LinkGBps is the bandwidth of one interconnect link in GB/s: per
	// directed pair under FullMesh, per NIC direction under SharedNIC
	// (default 25, RDMA-class).
	LinkGBps float64

	// SwitchGBps bounds the aggregate switch bandwidth under SharedNIC: all
	// transfers additionally serialize through one switch link of this
	// bandwidth. Zero models a non-blocking switch (no shared stage).
	// Ignored under FullMesh.
	SwitchGBps float64
}

// Normalize fills zero fields with defaults and reports layout errors.
// Defaults apply once: normalizing a normalized Spec returns it unchanged.
func (s Spec) Normalize() (Spec, error) {
	if s.Kind == "" {
		s.Kind = FullMesh
	}
	if s.LinkGBps == 0 {
		s.LinkGBps = 25
	}
	switch s.Kind {
	case FullMesh, SharedNIC:
	default:
		return s, fmt.Errorf("fabric: unknown topology kind %q (have %v)", s.Kind, Kinds())
	}
	if !(s.LinkGBps > 0) {
		return s, fmt.Errorf("fabric: link bandwidth %v GB/s must be positive", s.LinkGBps)
	}
	if !(s.SwitchGBps >= 0) {
		return s, fmt.Errorf("fabric: switch bandwidth %v GB/s must not be negative (0 = non-blocking)", s.SwitchGBps)
	}
	return s, nil
}

// Topology is the named link set of one deployment: per-replica host PCIe
// pairs (attached by the engines, which know their device's bandwidth) and
// the interconnect links the Spec lays out.
//
// Memory and build time are O(replicas + pairs used), whatever the layout:
// host links and the SharedNIC NICs and switch are O(N) and built eagerly,
// while a replica pair's path is resolved on its first Path call — under
// FullMesh that is when its dedicated link comes into existence. A run
// that never moves KV between two replicas never pays for their link.
type Topology struct {
	spec Spec
	n    int
	// bps is the interconnect link bandwidth in bytes per second.
	bps float64

	hostD2H, hostH2D []*gpu.Link

	// egress[i] / ingress[i] are replica i's SharedNIC uplink directions;
	// sw is the optional shared switch stage.
	egress, ingress []*gpu.Link
	sw              *gpu.Link

	// paths caches every resolved pair's link sequence, keyed from*n+to.
	// pairs lists the FullMesh pair links in the order their pairs were
	// first resolved. Both are written only by Path, which only the
	// cluster coordinator calls (see Path), and the cached slices are
	// immutable once stored.
	paths map[int][]*gpu.Link
	pairs []*gpu.Link
	// slab backs the cached path slices in chunks, so resolving a pair
	// allocates no slice of its own.
	slab []*gpu.Link
}

// pathSlabChunk is how many link pointers one slab chunk holds: a chunk
// serves 64 three-link shared-NIC paths or 192 full-mesh ones.
const pathSlabChunk = 192

// NewTopology builds the interconnect for the given replica count. It
// lays out only the O(N) links (the SharedNIC NICs and switch); pair
// paths are resolved by Path on first use.
func NewTopology(replicas int, spec Spec) (*Topology, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if replicas < 1 {
		return nil, fmt.Errorf("fabric: replica count %d must be >= 1", replicas)
	}
	t := &Topology{
		spec:    spec,
		n:       replicas,
		bps:     spec.LinkGBps * 1e9,
		hostD2H: make([]*gpu.Link, replicas),
		hostH2D: make([]*gpu.Link, replicas),
		paths:   make(map[int][]*gpu.Link),
	}
	if spec.Kind == SharedNIC {
		t.egress = make([]*gpu.Link, replicas)
		t.ingress = make([]*gpu.Link, replicas)
		for i := 0; i < replicas; i++ {
			t.egress[i] = gpu.NewLink(linkName("nic-out-", i), t.bps)
			t.ingress[i] = gpu.NewLink(linkName("nic-in-", i), t.bps)
		}
		if spec.SwitchGBps > 0 {
			t.sw = gpu.NewLink("switch", spec.SwitchGBps*1e9)
		}
	}
	return t, nil
}

// linkName builds a link name from a prefix and one or more replica ids
// joined by '-' ("nic-out-3", "ic-2-0") in a single allocation.
func linkName(prefix string, ids ...int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	for k, id := range ids {
		if k > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// AttachHost creates replica i's host link pair (device-to-host and
// host-to-device, PCIe full duplex) at the given per-direction bandwidth.
// Each engine attaches its own, since the bandwidth is a device property.
// Attaching twice is a wiring bug and panics.
func (t *Topology) AttachHost(replica int, bytesPerSec float64) {
	t.attachHost(replica, bytesPerSec, bytesPerSec)
}

func (t *Topology) attachHost(replica int, d2h, h2d float64) {
	t.checkReplica(replica)
	if t.hostD2H[replica] != nil {
		panic(fmt.Sprintf("fabric: replica %d host links already attached", replica))
	}
	t.hostD2H[replica] = gpu.NewLink(linkName("host-d2h-", replica), d2h)
	t.hostH2D[replica] = gpu.NewLink(linkName("host-h2d-", replica), h2d)
}

// Path resolves the interconnect link sequence a transfer from one replica
// to another traverses: the dedicated pair link under FullMesh; egress NIC,
// optional switch, ingress NIC under SharedNIC. The first call for a pair
// resolves it — creating its ic-<from>-<to> link under FullMesh — and
// caches the path; later calls return the cached slice without
// allocating. The returned slice is shared and immutable — callers must
// not modify it.
//
// Resolution writes the topology, so only one goroutine may call Path at
// a time. In a cluster that is the coordinator: interconnect transfers
// are booked and priced (BookBetween, ETABetween) only from coordinator
// events, on a routed run's one goroutine.
func (t *Topology) Path(from, to int) []*gpu.Link {
	t.checkReplica(from)
	t.checkReplica(to)
	if from == to {
		panic(fmt.Sprintf("fabric: self-transfer on replica %d", from))
	}
	key := from*t.n + to
	if p, ok := t.paths[key]; ok {
		return p
	}
	var p []*gpu.Link
	switch {
	case t.spec.Kind == FullMesh:
		l := gpu.NewLink(linkName("ic-", from, to), t.bps)
		t.pairs = append(t.pairs, l)
		p = t.newPath(l)
	case t.sw != nil:
		p = t.newPath(t.egress[from], t.sw, t.ingress[to])
	default:
		p = t.newPath(t.egress[from], t.ingress[to])
	}
	t.paths[key] = p
	return p
}

// newPath copies links into the slab and returns them as a path whose
// capacity ends at its length, so no append can reach a neighbour.
func (t *Topology) newPath(links ...*gpu.Link) []*gpu.Link {
	if cap(t.slab)-len(t.slab) < len(links) {
		t.slab = make([]*gpu.Link, 0, pathSlabChunk)
	}
	i := len(t.slab)
	t.slab = append(t.slab, links...)
	return t.slab[i:len(t.slab):len(t.slab)]
}

// Links lists every link that exists now, in a fixed order: attached host
// pairs by replica, then the FullMesh pair links in the order their pairs
// were first resolved, then the SharedNIC NICs by replica and the switch.
// A FullMesh pair that no Path has resolved has no link and is not listed.
func (t *Topology) Links() []*gpu.Link {
	out := make([]*gpu.Link, 0, 2*t.n+len(t.pairs)+2*len(t.egress)+1)
	t.EachLink(func(l *gpu.Link) { out = append(out, l) })
	return out
}

// EachLink calls fn on every link in Links order without building the
// list. Like Path, it must not run concurrently with a pair's resolution.
func (t *Topology) EachLink(fn func(*gpu.Link)) {
	for i, l := range t.hostD2H {
		if l != nil {
			fn(l)
			fn(t.hostH2D[i])
		}
	}
	for _, l := range t.pairs {
		fn(l)
	}
	for i, l := range t.egress {
		fn(l)
		fn(t.ingress[i])
	}
	if t.sw != nil {
		fn(t.sw)
	}
}

func (t *Topology) checkReplica(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("fabric: replica %d outside topology of %d", i, t.n))
	}
}

// Class labels a transfer's purpose for per-class accounting.
type Class int

// Transfer classes.
const (
	// ClassSync: background write-through mirroring (d2h).
	ClassSync Class = iota
	// ClassEvict: preemption evictions and pin eviction drains (d2h).
	ClassEvict
	// ClassLoad: preempted-request resume loads (h2d).
	ClassLoad
	// ClassReload: host-tier prefix cache reloads (h2d).
	ClassReload
	// ClassMigrate: routing-driven cross-replica pin migrations.
	ClassMigrate
	// ClassPrewarm: pre-warm migrations seeding a warming replica.
	ClassPrewarm
	// ClassDrain: drain hand-off migrations off a stopping replica.
	ClassDrain
	// ClassIndex: prefix-index publications — the control-plane events
	// replicas stream to the gateway's global KV index. Accounting-only
	// traffic (see AccountN): the propagation delay is modelled by the
	// index, not by link occupancy.
	ClassIndex
	// ClassReplicate: chaos pin-redundancy traffic — periodic host-mirror
	// copies of pinned session prefixes onto backup replicas, and the
	// post-crash re-replication restoring lost pins from surviving mirrors.
	ClassReplicate

	numClasses
)

var classNames = [numClasses]string{
	"sync", "evict", "load", "reload", "migrate", "prewarm", "drain", "index",
	"replicate",
}

func (c Class) String() string {
	if c >= 0 && c < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every transfer class in accounting order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// ClassStats totals one transfer class's traffic across the whole fabric.
type ClassStats struct {
	Class     Class
	Transfers int64
	Bytes     int64
	// Busy is the summed bottleneck wire time of the class's transfers
	// (queueing excluded).
	Busy time.Duration
}

// TransferScheduler books transfers over a Topology's links with FIFO
// contention, tallying per-class traffic. All byte movement in the
// simulation funnels through one scheduler, so contention between transfer
// classes (a pre-warm delaying a drain hand-off on a shared NIC, a reload
// queued behind a resume load on the host link) is modelled rather than
// assumed away.
type TransferScheduler struct {
	topo *Topology
	// classes is sharded by booking replica (row replica+1; row 0 takes
	// direct Book calls with no replica). Host-link bookings are issued
	// only by their own replica's engine, so under sharded cluster
	// execution each row has a single writer and bookings from parallel
	// shards never contend; ClassStats sums the rows on read.
	classes [][numClasses]ClassStats

	// repObs/repProf are the optional per-replica flight-recorder sinks,
	// the ones of the booking replica's shard (mirroring the classes-row
	// single-writer discipline); nil entries, and direct Book calls with
	// no replica, record nothing. Booking emits one KindTransfer event per
	// transfer and charges the settle scan to PhaseFabricSettle.
	repObs  []*obs.Recorder
	repProf []*obs.Profiler
}

// NewScheduler wraps a topology in a transfer scheduler.
func NewScheduler(topo *Topology) *TransferScheduler {
	return &TransferScheduler{
		topo:    topo,
		classes: make([][numClasses]ClassStats, topo.n+1),
	}
}

// Topology exposes the scheduler's link set.
func (s *TransferScheduler) Topology() *Topology { return s.topo }

// SetReplicaObs installs the flight-recorder sinks of the replica's
// shard: bookings attributed to the replica record there, so each
// recorder keeps a single writing goroutine. Pure observation: booking
// behavior is identical with or without them.
func (s *TransferScheduler) SetReplicaObs(replica int, rec *obs.Recorder, prof *obs.Profiler) {
	s.topo.checkReplica(replica)
	if s.repObs == nil {
		s.repObs = make([]*obs.Recorder, s.topo.n)
		s.repProf = make([]*obs.Profiler, s.topo.n)
	}
	s.repObs[replica] = rec
	s.repProf[replica] = prof
}

// Endpoint returns replica i's view of the scheduler (the handle the KV
// cache manager books host transfers through).
func (s *TransferScheduler) Endpoint(replica int) *Endpoint {
	s.topo.checkReplica(replica)
	return &Endpoint{s: s, replica: replica}
}

// pathPlan resolves when a transfer submitted now could start on the path
// (after the busiest link's backlog) and which link bottlenecks its wire
// time. Book and ETABetween share it, so the cost model's estimates can
// never diverge from what a booking actually charges.
func pathPlan(path []*gpu.Link, now simclock.Time) (start simclock.Time, bottleneck *gpu.Link) {
	if len(path) == 0 {
		panic("fabric: empty transfer path")
	}
	start = now
	bottleneck = path[0]
	for _, l := range path {
		if bu := l.BusyUntil(); bu > start {
			start = bu
		}
		if l.BytesPerSec() < bottleneck.BytesPerSec() {
			bottleneck = l
		}
	}
	return start, bottleneck
}

// Book books a transfer over an explicit link path: it starts when the last
// link of the path drains and holds every link for the bottleneck's wire
// time. For a single-link path this is exactly gpu.Link.Enqueue.
func (s *TransferScheduler) Book(class Class, path []*gpu.Link, now simclock.Time, bytes int64) (start, done simclock.Time) {
	return s.book(class, path, now, bytes, -1)
}

// book is Book with the booking side's replica attached for event
// attribution (-1 when the caller books an explicit path directly).
func (s *TransferScheduler) book(class Class, path []*gpu.Link, now simclock.Time, bytes int64, replica int) (start, done simclock.Time) {
	var rec *obs.Recorder
	var prof *obs.Profiler
	if replica >= 0 && replica < len(s.repObs) {
		rec, prof = s.repObs[replica], s.repProf[replica]
	}
	t0 := prof.Begin()
	start, bottleneck := pathPlan(path, now)
	wire := bottleneck.TransferTime(bytes)
	done = start.Add(wire)
	for _, l := range path {
		l.Reserve(start, done, bytes)
	}
	cs := &s.classes[replica+1][class]
	cs.Transfers++
	cs.Bytes += bytes
	cs.Busy += wire
	prof.End(obs.PhaseFabricSettle, t0)
	rec.Emit(now, obs.KindTransfer, replica, -1, -1,
		int64(start), int64(done), bytes, 0, classNames[class])
	return start, done
}

// BookBetween books an interconnect transfer between two replicas over the
// topology's path for the pair, resolving the pair on first use (so, like
// Topology.Path, it is a coordinator-only call in a cluster).
func (s *TransferScheduler) BookBetween(class Class, from, to int, now simclock.Time, bytes int64) (start, done simclock.Time) {
	return s.book(class, s.topo.Path(from, to), now, bytes, from)
}

// AccountN tallies n equal-sized control-plane transfers into a class's
// ledger in one write, without reserving link time: the bytes are real
// (they cross the fabric and show up in per-class totals and conservation
// laws) but far too small to contend with KV payloads, and their latency
// is modelled by the consumer — the prefix index applies publications
// after its propagation delay. Producers count their own traffic (the
// prefix index's publication counters) and settle the ledger at
// collection time instead of paying a ledger write per event. Like link
// bookings, each replica's accounting row has a single writer, so shard
// goroutines account concurrently without contention.
func (s *TransferScheduler) AccountN(class Class, replica int, bytes, n int64) {
	s.topo.checkReplica(replica)
	cs := &s.classes[replica+1][class]
	cs.Transfers += n
	cs.Bytes += n * bytes
}

// ETABetween predicts, without booking, how long an interconnect transfer
// between two replicas submitted now would take to complete: path queueing
// (the backlog of the busiest link on the path) plus bottleneck wire time.
// The migration cost model weighs this against prefix recompute. It
// resolves the pair like BookBetween and is coordinator-only for the same
// reason.
func (s *TransferScheduler) ETABetween(from, to int, now simclock.Time, bytes int64) time.Duration {
	start, bottleneck := pathPlan(s.topo.Path(from, to), now)
	return start.Sub(now) + bottleneck.TransferTime(bytes)
}

// ClassStats reports the per-class transfer totals in class order, summed
// across the per-replica accounting rows.
func (s *TransferScheduler) ClassStats() []ClassStats {
	out := make([]ClassStats, numClasses)
	for i := range out {
		out[i].Class = Class(i)
	}
	for r := range s.classes {
		for c := range out {
			cs := &s.classes[r][c]
			out[c].Transfers += cs.Transfers
			out[c].Bytes += cs.Bytes
			out[c].Busy += cs.Busy
		}
	}
	return out
}

// Endpoint is one replica's handle on the fabric: the host-link operations
// the KV cache manager needs, with every booking routed through the
// scheduler's class accounting.
type Endpoint struct {
	s       *TransferScheduler
	replica int
}

// Replica reports which replica the endpoint belongs to.
func (e *Endpoint) Replica() int { return e.replica }

// Scheduler exposes the owning transfer scheduler.
func (e *Endpoint) Scheduler() *TransferScheduler { return e.s }

// AttachHost creates the replica's host link pair at the given
// per-direction bandwidth (see Topology.AttachHost).
func (e *Endpoint) AttachHost(bytesPerSec float64) {
	e.s.topo.AttachHost(e.replica, bytesPerSec)
}

// HostAttached reports whether the replica's host links exist yet.
func (e *Endpoint) HostAttached() bool {
	return e.s.topo.hostD2H[e.replica] != nil
}

// D2H returns the replica's device-to-host link for read-only estimation
// (queue delay, wire time, backlog). Book transfers through EnqueueD2H so
// they are class-accounted.
func (e *Endpoint) D2H() *gpu.Link { return e.s.topo.hostD2H[e.replica] }

// H2D returns the replica's host-to-device link for read-only estimation.
func (e *Endpoint) H2D() *gpu.Link { return e.s.topo.hostH2D[e.replica] }

// EnqueueD2H books a device-to-host transfer submitted at now.
func (e *Endpoint) EnqueueD2H(class Class, now simclock.Time, bytes int64) (start, done simclock.Time) {
	return e.s.book(class, []*gpu.Link{e.D2H()}, now, bytes, e.replica)
}

// EnqueueH2D books a host-to-device transfer submitted at now.
func (e *Endpoint) EnqueueH2D(class Class, now simclock.Time, bytes int64) (start, done simclock.Time) {
	return e.s.book(class, []*gpu.Link{e.H2D()}, now, bytes, e.replica)
}

// NewSingleHost builds the degenerate fabric of a standalone single-device
// engine — no interconnect, just one replica's host link pair at the given
// per-direction bandwidths — and returns its endpoint.
func NewSingleHost(d2hBytesPerSec, h2dBytesPerSec float64) *Endpoint {
	topo, err := NewTopology(1, Spec{})
	if err != nil {
		panic(err) // the degenerate spec is statically valid
	}
	topo.attachHost(0, d2hBytesPerSec, h2dBytesPerSec)
	return NewScheduler(topo).Endpoint(0)
}
