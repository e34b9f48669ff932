// Package prefixindex implements the gateway's eventually-consistent view
// of cluster KV state: the event-published global prefix index that lets
// routing policies decide in O(1) instead of scanning every replica.
//
// Replicas publish KV lifecycle events (pin created / evicted / migrated,
// host mirror created / dropped) and load signals (per-change queue depths
// or heartbeat digests) as they happen; the gateway-side Index consumes
// them — after a modelled propagation delay, minus a configurable drop
// rate — into a session → holder map plus per-replica load digests. The
// digests live in a load board (internal/loadboard), whose tournament
// trees keep the least-queue and capacity-weighted winners available as
// tree-root reads, with O(log N) repair per applied event, so a routing
// decision's cost is independent of pool size.
//
// The design follows AIBrix's KV-event-sync gateway (replicas stream KV
// events, the router works against the eventually-consistent index) with
// the publication path modelled as delayed occurrences on the virtual
// clock. The degenerate spec — zero delay, zero drops, no heartbeat —
// applies every publication at the instant it is emitted, so the index is
// provably identical to the live state at every read and indexed policies
// reproduce their omniscient twins decision for decision.
package prefixindex

import (
	"fmt"
	"time"

	"repro/internal/loadboard"
	"repro/internal/simclock"
)

// Spec configures the index's consistency model.
type Spec struct {
	// PropagationDelay is the lag between a replica publishing an event
	// and the gateway index applying it (the fabric's control-plane
	// latency). Zero applies events synchronously.
	PropagationDelay time.Duration

	// DropRate is the probability in [0, 1) that a KV lifecycle
	// publication (pin or mirror event) is lost in flight. Load signals
	// are never dropped: heartbeats are the recovery mechanism, and
	// per-change queue publications model a reliable stream. Drops are
	// deterministic per (Seed, replica, sequence), so runs reproduce.
	DropRate float64

	// HeartbeatEvery switches load signalling from per-change queue
	// publications to periodic digests: every stride the cluster publishes
	// each active replica's queue depth and bucket-quantized free pages.
	// Zero keeps the per-change stream (exact queues, no free-page view).
	HeartbeatEvery time.Duration

	// MaxStaleness bounds how old a replica's digest may be before
	// policies stop trusting it and fall back to capacity-weighted
	// routing. Zero defaults to 3×HeartbeatEvery + PropagationDelay under
	// heartbeats, and to no staleness check (per-change signals cannot go
	// stale) otherwise.
	MaxStaleness time.Duration

	// Seed keys the deterministic drop decisions.
	Seed int64
}

// Normalize resolves the MaxStaleness default and reports an error for
// out-of-range knobs. Defaults apply once: normalizing a normalized Spec
// returns it unchanged.
func (s Spec) Normalize() (Spec, error) {
	switch {
	case s.PropagationDelay < 0:
		return s, fmt.Errorf("prefixindex: negative propagation delay %v", s.PropagationDelay)
	case !(s.DropRate >= 0 && s.DropRate < 1):
		return s, fmt.Errorf("prefixindex: drop rate %v outside [0, 1)", s.DropRate)
	case s.HeartbeatEvery < 0:
		return s, fmt.Errorf("prefixindex: negative heartbeat stride %v", s.HeartbeatEvery)
	case s.MaxStaleness < 0:
		return s, fmt.Errorf("prefixindex: negative staleness bound %v", s.MaxStaleness)
	}
	if s.MaxStaleness == 0 && s.HeartbeatEvery > 0 {
		s.MaxStaleness = 3*s.HeartbeatEvery + s.PropagationDelay
	}
	return s, nil
}

// EvKind labels one published event.
type EvKind uint8

const (
	// EvPin: the replica's pinned prefix for Session changed. Val=tokens
	// now pinned; 0 means the pin left the device (evicted, adopted into
	// an admission, or staked for migration out).
	EvPin EvKind = iota
	// EvMirror: the replica's host-tier mirror for Session changed.
	// Val=mirrored tokens; 0 means the mirror dropped.
	EvMirror
	// EvLoad: the replica's outstanding request count changed (per-change
	// signalling, HeartbeatEvery == 0). Val=outstanding.
	EvLoad
	// EvDigest: a heartbeat digest. Val=outstanding, Aux=free pool pages
	// (bucket-quantized by the publisher).
	EvDigest

	numEvKinds
)

var evKindNames = [numEvKinds]string{"pin", "mirror", "load", "digest"}

// String returns the kind's stable wire name.
func (k EvKind) String() string {
	if int(k) < len(evKindNames) {
		return evKindNames[k]
	}
	return "unknown"
}

// PubBytes is the modelled wire size of one publication: the control-plane
// bytes the fabric accounts per event (a fixed small header — session,
// tokens, sequence — dwarfed by any KV payload).
const PubBytes = 64

// Pub is one publication in flight from a replica to the gateway index.
type Pub struct {
	// At is the emission instant; ApplyAt = At + PropagationDelay is when
	// the index absorbs it.
	At, ApplyAt simclock.Time
	// Replica is the publishing replica; Seq its per-replica publication
	// number (the merge tie-break under sharded execution).
	Replica int
	Seq     uint64
	// Kind, Session, Val, Aux carry the event payload (see EvKind).
	Kind    EvKind
	Session int
	Val     int64
	Aux     int64
	// Dropped marks a publication lost in flight: it is counted and
	// accounted on the wire but never applied.
	Dropped bool
}

// Drop decides deterministically whether publication seq from the replica
// is lost at the given rate. The decision hashes (seed, replica, seq) so
// identical runs drop identical events regardless of sharding.
func Drop(seed int64, replica int, seq uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := uint64(seed)
	h ^= uint64(replica+1) * 0x9e3779b97f4a7c15
	h ^= seq * 0xbf58476d1ce4e5b9
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h)/float64(1<<64) < rate
}

// Outcome classifies what the last indexed routing decision did, for the
// flight recorder's fallback events and the index hit/miss counters.
type Outcome uint8

const (
	// OutcomeNone: no indexed decision since the last TakeOutcome.
	OutcomeNone Outcome = iota
	// OutcomeHit: affinity stuck the request to an indexed prefix holder.
	OutcomeHit
	// OutcomeMiss: the index holds no prefix for the session (first turn,
	// evicted everywhere, or the pin event has not propagated yet).
	OutcomeMiss
	// OutcomeStale: the chosen replica's digest exceeded MaxStaleness.
	OutcomeStale
	// OutcomeHeadroom: the holder lacks KV headroom for the request.
	OutcomeHeadroom
	// OutcomeOverload: the holder queues far beyond the lightest replica.
	OutcomeOverload

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"none", "hit", "miss", "stale", "headroom", "overload",
}

// String returns the outcome's stable wire name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Fallback reports whether the outcome diverted the request away from its
// indexed target (the outcomes the flight recorder surfaces).
func (o Outcome) Fallback() bool {
	return o == OutcomeMiss || o == OutcomeStale ||
		o == OutcomeHeadroom || o == OutcomeOverload
}

// Stats aggregates the index's lifetime counters.
type Stats struct {
	// Published counts every publication put on the wire (including
	// dropped ones — they consumed fabric bytes); Dropped the subset lost
	// in flight; Applied the subset absorbed into the index so far.
	Published, Dropped, Applied int64
	// Heartbeats counts applied digest publications.
	Heartbeats int64
	// AffinityHits / AffinityMisses / StaleFallbacks / HeadroomFallbacks /
	// OverloadFallbacks classify indexed session-affinity decisions;
	// StaleFallbacks also counts indexed least-queue staleness diversions.
	AffinityHits, AffinityMisses                         int64
	StaleFallbacks, HeadroomFallbacks, OverloadFallbacks int64
	// Pending is the in-flight publication count at collection time;
	// Sessions the distinct sessions currently indexed.
	Pending, Sessions int64
}

// repState is the part of the index's digest of one replica that routing
// reads beside the load board: the headroom view and its age.
type repState struct {
	pageTokens int
	freePages  int
	updatedAt  simclock.Time
}

// Index is the gateway-side consumer: the session → holder map, the
// per-replica load digests, and the load board that keeps routing
// winners O(1). One Index serves one cluster run, published to, read and
// advanced only from the coordinator goroutine (a run with an index
// executes on one shard, inline on the coordinator).
type Index struct {
	spec Spec // normalized

	// board holds each replica's published queue, capacity and activity;
	// reps the rest of its digest.
	board *loadboard.Board
	reps  []repState

	// sessions maps session → holder entries (>0 tokens only); mirrors is
	// the host-tier analogue. A session's holder set is tiny — one holder
	// normally, two transiently while a migration's evict event is still
	// in flight — so it lives in a flat slice the publish hot path can
	// mutate in place instead of paying a second map per session.
	sessions map[int][]holderEnt
	mirrors  map[int][]holderEnt
	// spare holds emptied holder slices a session dropped, for setHolder
	// to hand to the next session that gains its first holder.
	spare [][]holderEnt

	// pending is the in-flight publication queue, FIFO from head.
	// Publications arrive in nondecreasing ApplyAt (emission order plus a
	// constant delay), so FIFO drain is exactly apply-time order.
	pending []Pub
	head    int

	now         simclock.Time
	stats       Stats
	lastOutcome Outcome
}

// New builds an empty index over n replicas. Seed each replica's geometry
// with SeedReplica and mark the initial serving set with SetActive before
// routing.
func New(spec Spec, n int) (*Index, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("prefixindex: non-positive replica count %d", n)
	}
	return &Index{
		spec:     spec,
		board:    loadboard.New(n),
		reps:     make([]repState, n),
		sessions: make(map[int][]holderEnt),
		mirrors:  make(map[int][]holderEnt),
	}, nil
}

// LiveHeadroom reports whether affinity headroom checks should read the
// holder's live free-token count (per-change signalling carries no
// free-page view) instead of the digest estimate.
func (x *Index) LiveHeadroom() bool { return x.spec.HeartbeatEvery == 0 }

// SeedReplica records a replica's static geometry and starting digest
// (empty queue, whole pool free). Call once per replica before routing.
func (x *Index) SeedReplica(i, capPages, pageTokens int) {
	x.board.SetCapacity(i, capPages)
	x.reps[i].pageTokens = pageTokens
	x.reps[i].freePages = capPages
}

// SetActive marks a replica in or out of the serving set. Activation is
// control-plane state the gateway owns, so it applies synchronously — the
// index never routes to a replica the cluster would not.
func (x *Index) SetActive(i int, active bool) { x.board.SetActive(i, active) }

// AdvanceTo moves the index's read clock to now and absorbs every pending
// publication due by then. The cluster calls it once per routing decision
// and control tick; policies then read a consistent snapshot.
func (x *Index) AdvanceTo(now simclock.Time) {
	if now > x.now {
		x.now = now
	}
	x.drain()
}

// Publish hands one publication to the index. Dropped publications count
// on the wire but never apply. Publications must arrive in nondecreasing
// emission order (a cluster run with an index publishes from one shard
// clock, which guarantees it; the per-replica Seq witnesses it), so the
// emission instant itself advances the read clock — in the degenerate
// zero-delay spec every publication therefore applies at the moment it is
// emitted.
func (x *Index) Publish(p Pub) {
	x.stats.Published++
	if p.Dropped {
		x.stats.Dropped++
		return
	}
	if p.At > x.now {
		x.now = p.At
	}
	if x.head == len(x.pending) && p.ApplyAt <= x.now {
		// Due immediately with no backlog ahead of it — the only case the
		// degenerate synchronous spec ever sees. Apply in place and skip
		// the pending queue entirely.
		x.apply(&p)
		return
	}
	x.pending = append(x.pending, p)
	x.drain()
}

// drain applies every pending publication due at the current read clock.
func (x *Index) drain() {
	for x.head < len(x.pending) && x.pending[x.head].ApplyAt <= x.now {
		x.apply(&x.pending[x.head])
		x.head++
	}
	if x.head == len(x.pending) {
		x.pending = x.pending[:0]
		x.head = 0
	} else if x.head > 4096 && x.head*2 > len(x.pending) {
		n := copy(x.pending, x.pending[x.head:])
		x.pending = x.pending[:n]
		x.head = 0
	}
}

// apply absorbs one publication into the index state.
func (x *Index) apply(p *Pub) {
	x.stats.Applied++
	switch p.Kind {
	case EvPin:
		x.setHolder(x.sessions, p.Session, p.Replica, int(p.Val))
	case EvMirror:
		x.setHolder(x.mirrors, p.Session, p.Replica, int(p.Val))
	case EvLoad:
		x.reps[p.Replica].updatedAt = p.At
		x.board.SetQueue(p.Replica, int(p.Val))
	case EvDigest:
		r := &x.reps[p.Replica]
		r.freePages = int(p.Aux)
		r.updatedAt = p.At
		x.stats.Heartbeats++
		x.board.SetQueue(p.Replica, int(p.Val))
	}
}

// holderEnt is one (replica, pinned tokens) holder record. int32 bounds
// are generous: replica IDs are pool indices and pinned tokens are prompt
// lengths, both far below 2^31.
type holderEnt struct {
	replica int32
	tokens  int32
}

// setHolder updates a session's holder set, deleting zero entries so
// holder scans stay proportional to live holders. Updating an existing
// holder mutates the slice's backing array directly — no map write — so
// the steady-state pin churn of a long session costs one map read. A
// session's emptied slice goes to spare, and the next session to gain its
// first holder reuses it, so holder churn allocates nothing once warm.
func (x *Index) setHolder(m map[int][]holderEnt, session, replica, tokens int) {
	hs := m[session]
	if tokens <= 0 {
		for i := range hs {
			if int(hs[i].replica) == replica {
				last := len(hs) - 1
				hs[i] = hs[last]
				if last == 0 {
					delete(m, session)
					x.spare = append(x.spare, hs[:0])
				} else {
					m[session] = hs[:last]
				}
				return
			}
		}
		return
	}
	for i := range hs {
		if int(hs[i].replica) == replica {
			hs[i].tokens = int32(tokens)
			return
		}
	}
	if hs == nil {
		if n := len(x.spare); n > 0 {
			hs, x.spare[n-1] = x.spare[n-1], nil
			x.spare = x.spare[:n-1]
		}
	}
	m[session] = append(hs, holderEnt{replica: int32(replica), tokens: int32(tokens)})
}

// HolderFor returns the active replica the index believes holds the
// session's largest pinned prefix (most tokens, ties by lowest replica
// ID — the omniscient affinity scan's order). The max-with-strict-tie-break
// makes the result independent of holder storage order.
func (x *Index) HolderFor(session int) (replica, tokens int, ok bool) {
	replica = -1
	for _, h := range x.sessions[session] {
		r, t := int(h.replica), int(h.tokens)
		if !x.board.Active(r) {
			continue
		}
		if t > tokens || (t == tokens && (replica < 0 || r < replica)) {
			replica, tokens = r, t
		}
	}
	return replica, tokens, replica >= 0
}

// DonorFor returns the replica (any lifecycle state — draining donors
// still ship their pins) holding more of the session's prefix than
// atLeast but less than the full prompt, preferring most tokens then
// lowest ID: the indexed replacement for the migration donor scan.
func (x *Index) DonorFor(session, exclude, atLeast, below int) (replica, tokens int, ok bool) {
	replica, tokens = -1, atLeast
	for _, h := range x.sessions[session] {
		r, t := int(h.replica), int(h.tokens)
		// t >= below: the prompt already covers the pin, so recomputing
		// beats the wire (mirrors the omniscient scan's t < PromptLen).
		if r == exclude || t >= below {
			continue
		}
		if t > tokens || (t == tokens && replica >= 0 && r < replica) {
			replica, tokens = r, t
		}
	}
	if replica < 0 {
		return -1, 0, false
	}
	return replica, tokens, true
}

// LeastQueue returns the active replica with the fewest published
// outstanding requests (ties by lowest ID), or -1 with no active replica.
func (x *Index) LeastQueue() int { return x.board.LeastQueue() }

// LeastLoad returns the capacity-weighted winner (lowest queue per pool
// page, ties by capacity then ID), or -1 with no active replica.
func (x *Index) LeastLoad() int { return x.board.LeastLoad() }

// MinQueue returns the smallest published outstanding count among active
// replicas (0 with none active).
func (x *Index) MinQueue() int { return x.board.MinQueue() }

// QueueOf reports the index's view of a replica's outstanding count.
func (x *Index) QueueOf(i int) int { return x.board.Queue(i) }

// FreeTokensOf reports the index's view of a replica's free KV capacity in
// tokens (digest free pages × page granularity).
func (x *Index) FreeTokensOf(i int) int {
	return x.reps[i].freePages * x.reps[i].pageTokens
}

// Fresh reports whether a replica's digest is within the staleness bound
// at the index's read clock. With no bound (per-change signalling) every
// digest is fresh.
func (x *Index) Fresh(i int) bool {
	if x.spec.MaxStaleness == 0 {
		return true
	}
	return x.now.Sub(x.reps[i].updatedAt) <= x.spec.MaxStaleness
}

// Note records a routing outcome: the counters feed Stats and the latest
// value is handed to the flight recorder via TakeOutcome.
func (x *Index) Note(o Outcome) {
	x.lastOutcome = o
	switch o {
	case OutcomeHit:
		x.stats.AffinityHits++
	case OutcomeMiss:
		x.stats.AffinityMisses++
	case OutcomeStale:
		x.stats.StaleFallbacks++
	case OutcomeHeadroom:
		x.stats.HeadroomFallbacks++
	case OutcomeOverload:
		x.stats.OverloadFallbacks++
	}
}

// TakeOutcome returns and clears the last recorded routing outcome.
func (x *Index) TakeOutcome() Outcome {
	o := x.lastOutcome
	x.lastOutcome = OutcomeNone
	return o
}

// PendingLen reports the in-flight publication count.
func (x *Index) PendingLen() int { return len(x.pending) - x.head }

// Stats returns a snapshot of the index's counters with the gauges filled.
func (x *Index) Stats() Stats {
	s := x.stats
	s.Pending = int64(x.PendingLen())
	s.Sessions = int64(len(x.sessions))
	return s
}
