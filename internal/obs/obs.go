// Package obs is the simulator's flight recorder: a virtual-clock event
// bus with typed, pooled lifecycle events, a named-series telemetry
// registry, exporters (JSONL, CSV, Chrome trace_event JSON), and a wall-
// clock self-profiler for the simulator's own phases.
//
// The package is built around one invariant: a nil recorder is free. Every
// subsystem holds a *Recorder that defaults to nil, every emit site is
// nil-guarded, and emission never schedules events or mutates simulation
// state — observability off is byte-identical to a build without the
// package. With observability on, events live in chunked arenas (one
// allocation per eventChunk events, no per-event heap escape), guarded by
// BenchmarkEventEmit.
package obs

import (
	"sort"

	"repro/internal/simclock"
)

// Kind labels one lifecycle event. The numeric order groups the request
// path first, then KV, migration, scaling, and fabric events.
type Kind uint8

const (
	// KindArrival: a request entered the cluster. Request/Session set;
	// A=prompt tokens, B=output tokens.
	KindArrival Kind = iota
	// KindGatewayBuffer: the scale-to-zero gateway buffered an arrival.
	// A=gateway depth after buffering.
	KindGatewayBuffer
	// KindGatewayShed: the gateway refused an arrival at capacity.
	// A=gateway depth at refusal.
	KindGatewayShed
	// KindRouteDecision: the router picked a replica. Replica=picked;
	// F=the policy's score for the pick; Label=policy name.
	KindRouteDecision
	// KindQueue: a request was injected into a replica's queue.
	// A=cached prefix tokens credited at injection (prefix hit when >0);
	// B=QueuePayload(cause, turn) — the deferral-cause bits packed with
	// the session turn; C=the request's arrival time (ns);
	// F=the host-reload deferral (ns; 0 when injected immediately).
	KindQueue
	// KindAdmit: the scheduler admitted a request toward prefill.
	// A=tokens to prefill (prompt minus cached), B=tokens allocated.
	KindAdmit
	// KindPreempt: a running request was preempted for memory.
	KindPreempt
	// KindResume: a preempted request resumed. Label="load" (KV restored
	// over the wire) or "recompute".
	KindResume
	// KindFirstToken: prefill completed and the first token was delivered.
	KindFirstToken
	// KindDecodeProgress: decode heartbeat, every decodeStride tokens.
	// A=tokens generated so far.
	KindDecodeProgress
	// KindComplete: the request finished. A=tokens generated.
	KindComplete
	// KindKVPin: a session prefix was pinned. Session set; A=tokens,
	// B=pages.
	KindKVPin
	// KindKVEvict: a session pin was evicted. A=tokens, B=pages.
	KindKVEvict
	// KindKVMirror: an evicted pin left a host-tier mirror. A=tokens,
	// B=pages.
	KindKVMirror
	// KindKVMirrorDrop: a host mirror was released (budget eviction,
	// replacement, or consumed by a reload). A=tokens, B=pages.
	KindKVMirrorDrop
	// KindKVReload: a host mirror's h2d reload was booked. A=tokens,
	// B=bytes.
	KindKVReload
	// KindMigrateAccept: a prefix migration was committed. Replica=donor,
	// A=target replica, B=tokens, C=bytes.
	KindMigrateAccept
	// KindMigrateDecline: the cost model declined a migration.
	// Replica=donor, A=target replica, B=transfer ETA (ns),
	// C=recompute estimate (ns), F=prefix tokens weighed.
	KindMigrateDecline
	// KindPrewarm: a warming replica was seeded with a hot prefix.
	// Replica=donor, A=target replica, B=tokens.
	KindPrewarm
	// KindDrain: a draining replica rehomed (A=target replica) or dropped
	// (A=-1) a pinned prefix. B=tokens.
	KindDrain
	// KindScaleDecision: the autoscaler acted (Hold is not recorded).
	// Replica=affected replica; Label=decision name; A=outstanding,
	// B=gateway depth, C=windowed P99 TTFT (ns), F=pooled KV utilization.
	KindScaleDecision
	// KindTransfer: the fabric booked a transfer. Label=class name,
	// A=start (ns), B=done (ns), C=bytes. Replica is the booking side's
	// replica when known, -1 otherwise.
	KindTransfer
	// KindIndexPublish: a replica published a KV lifecycle or load event
	// to the gateway's prefix index. Replica=publisher; Session set for
	// pin/mirror events; A=event kind (prefixindex.EvKind), B=payload
	// value (tokens or queue depth), C=1 when the publication was dropped
	// in flight; Label=event kind name.
	KindIndexPublish
	// KindIndexFallback: an indexed routing decision diverted away from
	// its indexed target (index miss, stale digest, no headroom, or
	// overload). Replica=the replica finally picked; Label=outcome name.
	KindIndexFallback
	// KindCrash: a chaos fault killed the replica. A=orphaned requests
	// handed back for retry, B=pinned sessions lost, C=host mirrors lost.
	KindCrash
	// KindBrownout: a chaos brownout window opened (Label="begin",
	// F=iteration-cost factor) or closed (Label="end").
	KindBrownout
	// KindLinkFlap: an interconnect pair went down (Label="down") or
	// recovered (Label="up"). Replica=From, A=To, B=in-flight transfers
	// aborted by the outage.
	KindLinkFlap
	// KindRetry: an orphaned request re-entered the gateway after a crash.
	// Replica=the replica picked for the retry (-1 when it re-buffered in
	// the gateway or exhausted its budget); A=attempt number;
	// Label="reroute", "gateway", or "failed".
	KindRetry
	// KindReplicate: pin redundancy copied a pinned session prefix into a
	// backup replica's host-mirror tier. Replica=source, A=target replica,
	// B=tokens, C=bytes.
	KindReplicate

	numKinds
)

var kindNames = [numKinds]string{
	"arrival", "gateway-buffer", "gateway-shed", "route", "queue", "admit",
	"preempt", "resume", "first-token", "decode", "complete",
	"kv-pin", "kv-evict", "kv-mirror", "kv-mirror-drop", "kv-reload",
	"migrate-accept", "migrate-decline", "prewarm", "drain",
	"scale-decision", "transfer", "index-publish", "index-fallback",
	"crash", "brownout", "link-flap", "retry", "replicate",
}

// String returns the kind's stable wire name (used in JSONL and CSV).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a wire name back to its Kind (the inverse of
// String), reporting false for unknown names. Offline analyzers reading
// the JSONL export use it to reconstruct typed events.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Deferral causes carried in KindQueue's B payload: a request can reach
// the replica queue later than it arrived because the scale-to-zero
// gateway held it, a prefix migration had to land first, or a host-tier
// KV reload was booked at injection. The cause bits occupy the low bits
// of B; the session turn rides above them, so one replica-scoped event
// carries everything span derivation needs.
const (
	// QueueCauseReload: injection waited for a host-tier KV reload.
	QueueCauseReload int64 = 1 << 0
	// QueueCauseMigrate: injection waited for a prefix migration wire
	// transfer onto the serving replica.
	QueueCauseMigrate int64 = 1 << 1
	// QueueCauseGateway: the scale-to-zero gateway buffered the arrival
	// until a replica warmed up.
	QueueCauseGateway int64 = 1 << 2
	// QueueCauseRetry: the request re-entered after its serving replica
	// crashed (chaos recovery path).
	QueueCauseRetry int64 = 1 << 3

	queueCauseShift = 4
)

// QueuePayload packs the deferral-cause bits and the session turn into
// KindQueue's B field.
func QueuePayload(cause int64, turn int) int64 {
	return cause | int64(turn)<<queueCauseShift
}

// QueueCause unpacks the deferral-cause bits from KindQueue's B field.
func QueueCause(b int64) int64 { return b & (1<<queueCauseShift - 1) }

// QueueTurn unpacks the session turn from KindQueue's B field.
func QueueTurn(b int64) int { return int(b >> queueCauseShift) }

// Event is one recorded lifecycle event. The struct is fixed-size and
// value-typed: recording an event copies it into a chunked arena and never
// allocates per event. Fields that do not apply to a kind hold -1 (ints)
// or 0; per-kind field meaning is documented on the Kind constants.
type Event struct {
	// Seq is the event's position in the run's canonical event order
	// (assigned by Events(); during recording it holds the per-recorder
	// emission order).
	Seq uint64
	// At is the virtual-clock instant of the event.
	At simclock.Time
	// Kind labels the event.
	Kind Kind
	// Replica is the replica the event happened on (-1 for cluster-scoped
	// events such as arrivals and gateway activity).
	Replica int32
	// Request and Session identify the request/session (-1 when not
	// request- or session-scoped).
	Request, Session int32
	// A, B, C and F carry per-kind payloads (see Kind docs).
	A, B, C int64
	F       float64
	// Label is a constant string payload (policy name, transfer class,
	// decision name); emitting one never allocates.
	Label string
}

// eventChunk is the arena granularity: one allocation per this many
// events on the recording path.
const eventChunk = 4096

// Options selects which observability layers a run records. The zero
// value records nothing and costs nothing.
type Options struct {
	// Events records lifecycle events on the bus.
	Events bool
	// Series records named per-tick telemetry series.
	Series bool
	// Profile times the simulator's own phases with the wall clock.
	Profile bool
	// Attribution streams per-request phase spans into bounded-memory
	// quantile sketches (phase × request class × replica). Cluster runs
	// only; it rides the event bus without retaining events, so it works
	// at scales where storing the full stream would not fit.
	Attribution bool
}

// Recorder is the event bus sink. A nil *Recorder is valid and free:
// every method nil-guards, so subsystems emit unconditionally through
// their (possibly nil) recorder pointer.
//
// The recorder is not goroutine-safe: it has one writing goroutine, like
// the simclock it runs beside. A cluster keeps one recorder per shard
// clock, and a run that retains its events has one shard.
type Recorder struct {
	chunks [][]Event
	seq    uint64
	tap    func(Event)
	store  bool
}

// NewRecorder returns an empty event recorder.
func NewRecorder() *Recorder { return &Recorder{store: true} }

// SetTap installs fn, invoked with every emitted event (by value, before
// storage). Streaming consumers — the attribution collector — ride the
// tap so they see events even when storage is disabled.
func (r *Recorder) SetTap(fn func(Event)) {
	if r != nil {
		r.tap = fn
	}
}

// DisableStore stops chunk retention: events still flow to the tap, but
// nothing accumulates. Attribution-only runs use this so 1M-request
// streams never materialize.
func (r *Recorder) DisableStore() {
	if r != nil {
		r.store = false
	}
}

// On reports whether events should be emitted. A nil recorder is off;
// emit sites may use this to skip argument computation.
func (r *Recorder) On() bool { return r != nil }

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	return n
}

// Emit records one event. It assigns the per-recorder sequence number,
// hands the event to the tap when one is installed, and copies it into
// the current arena chunk; amortized cost is one allocation per
// eventChunk events. Emitting on a nil recorder is a no-op.
func (r *Recorder) Emit(at simclock.Time, kind Kind, replica, request, session int, a, b, c int64, f float64, label string) {
	if r == nil {
		return
	}
	e := Event{
		Seq: r.seq, At: at, Kind: kind,
		Replica: int32(replica), Request: int32(request), Session: int32(session),
		A: a, B: b, C: c, F: f, Label: label,
	}
	r.seq++
	if r.tap != nil {
		r.tap(e)
	}
	if !r.store {
		return
	}
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == cap(r.chunks[n-1]) {
		r.chunks = append(r.chunks, make([]Event, 0, eventChunk))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], e)
}

// Events returns the recorded events in canonical order — sorted by
// (At, Replica, emission Seq), a total tie-break that keeps exported
// output byte-stable across runs even when several subsystems emit at
// the same virtual instant. Seq is renumbered to the canonical position.
// The returned slice is a fresh copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	sortEvents(out)
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}

// sortEvents orders events by (At, Replica, Seq). Seq is unique, so the
// order is total. The recorder emits in nondecreasing At (its clock
// never runs backwards); the sort only reorders same-instant runs.
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool { return eventLess(ev[i], ev[j]) })
}

func eventLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Replica != b.Replica {
		return a.Replica < b.Replica
	}
	return a.Seq < b.Seq
}

// CountKind reports how many recorded events have the given kind.
func (r *Recorder) CountKind(k Kind) int {
	if r == nil {
		return 0
	}
	n := 0
	for _, c := range r.chunks {
		for i := range c {
			if c[i].Kind == k {
				n++
			}
		}
	}
	return n
}

// Capture bundles the observability products of one run. Any field may
// be nil when that layer was off.
type Capture struct {
	Events  *Recorder
	Series  *Registry
	Profile *Profiler
}
