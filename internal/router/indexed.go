package router

import (
	"repro/internal/prefixindex"
)

// Indexed policies route against the event-published global prefix index
// instead of scanning the live replica slice: session lookups are a map
// read, load winners are tournament-tree root reads, and the per-decision
// cost is independent of pool size. The cluster binds its index before the
// run via IndexBinder; with the degenerate index spec (zero delay, zero
// drops, no heartbeat) each indexed policy reproduces its omniscient twin
// decision for decision.
//
// Bounded staleness: when the chosen replica's digest is older than the
// spec's staleness bound the policy diverts to the capacity-weighted tree
// winner — a fallback that is itself O(1), never a rescan of the pool.

// IndexBinder is implemented by policies that route against a prefix
// index. The cluster binds its index to the policy before the run starts.
type IndexBinder interface {
	// BindIndex installs the index the policy reads. Must be called
	// before the first Pick.
	BindIndex(x *prefixindex.Index)
}

// viewIndexOf locates the replica with the given ID in the router's view
// slice. The cluster passes views in ascending ID order with IDs dense
// from 0, so the direct probe or the binary search resolves in O(1) /
// O(log N) on the hot path; the linear sweep only backstops synthetic
// test views that shuffle replicas arbitrarily.
func viewIndexOf(replicas []Replica, id int) int {
	if i := sortedViewIndexOf(replicas, id); i >= 0 {
		return i
	}
	for i, r := range replicas {
		if r.ID() == id {
			return i
		}
	}
	return -1
}

// sortedViewIndexOf is viewIndexOf for a view in ascending ID order: the
// direct probe, then a binary search, and -1 when the replica is not in
// the view.
func sortedViewIndexOf(replicas []Replica, id int) int {
	if id >= 0 && id < len(replicas) && replicas[id].ID() == id {
		return id
	}
	lo, hi := 0, len(replicas)
	for lo < hi {
		mid := (lo + hi) / 2
		if replicas[mid].ID() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(replicas) && replicas[lo].ID() == id {
		return lo
	}
	return -1
}

// IndexedLeastQueue routes to the index's least-queue tree winner — the
// same replica the omniscient LeastQueue scan would pick when the index is
// current — without touching any replica state. A stale winner digest
// diverts to the capacity-weighted winner.
type IndexedLeastQueue struct {
	idx *prefixindex.Index
	// scan is the safety net for a winner that is not in the caller's
	// view (an index/view disagreement no cluster run produces; synthetic
	// router tests can).
	scan LeastQueue
}

// NewIndexedLeastQueue returns an unbound indexed least-queue policy.
func NewIndexedLeastQueue() *IndexedLeastQueue { return &IndexedLeastQueue{} }

// Name implements Policy.
func (p *IndexedLeastQueue) Name() string { return NameIndexedLeastQueue }

// BindIndex implements IndexBinder.
func (p *IndexedLeastQueue) BindIndex(x *prefixindex.Index) { p.idx = x }

// Pick implements Policy.
func (p *IndexedLeastQueue) Pick(req Request, replicas []Replica) int {
	x := p.idx
	if x == nil {
		// Unbound (constructed outside a cluster run): behave as the
		// omniscient policy rather than crash.
		return p.scan.Pick(req, replicas)
	}
	w := x.LeastQueue()
	if w >= 0 && !x.Fresh(w) {
		x.Note(prefixindex.OutcomeStale)
		w = x.LeastLoad()
	}
	if w >= 0 {
		if vi := viewIndexOf(replicas, w); vi >= 0 {
			return vi
		}
	}
	return p.scan.Pick(req, replicas)
}

// Score implements Scorer: the index's view of the replica's queue depth
// (lower wins).
func (p *IndexedLeastQueue) Score(_ Request, r Replica) float64 {
	if p.idx == nil {
		return float64(r.QueueDepth())
	}
	return float64(p.idx.QueueOf(r.ID()))
}

// IndexedSessionAffinity sticks sessions to the replica the index believes
// holds their largest pinned prefix, guarded exactly like the omniscient
// SessionAffinity: the holder must have KV headroom for the request's
// lifetime context and must not queue beyond 2× the lightest replica plus
// slack. Under per-change signalling the headroom probe reads the holder's
// live free tokens (one replica, O(1)); under heartbeats it uses the
// digest's bucket-quantized estimate. Misses, stale digests, and failed
// guards divert to the capacity-weighted tree winner.
type IndexedSessionAffinity struct {
	idx *prefixindex.Index
	// scan backstops unbound use and index/view disagreement; like any
	// SessionAffinity it reads the holders from Request.PrefixHolders.
	scan SessionAffinity
}

// NewIndexedSessionAffinity returns an unbound indexed affinity policy.
func NewIndexedSessionAffinity() *IndexedSessionAffinity {
	return &IndexedSessionAffinity{}
}

// Name implements Policy.
func (p *IndexedSessionAffinity) Name() string { return NameIndexedSessionAffinity }

// BindIndex implements IndexBinder.
func (p *IndexedSessionAffinity) BindIndex(x *prefixindex.Index) { p.idx = x }

// Pick implements Policy.
func (p *IndexedSessionAffinity) Pick(req Request, replicas []Replica) int {
	x := p.idx
	if x == nil {
		return p.scan.Pick(req, replicas)
	}
	if req.Session != 0 {
		if holder, tokens, ok := x.HolderFor(req.Session); !ok {
			x.Note(prefixindex.OutcomeMiss)
		} else if !x.Fresh(holder) {
			x.Note(prefixindex.OutcomeStale)
		} else if vi := viewIndexOf(replicas, holder); vi >= 0 {
			var free int
			if x.LiveHeadroom() {
				free = replicas[vi].FreeKVTokens()
			} else {
				free = x.FreeTokensOf(holder)
			}
			switch {
			case free+tokens < req.PromptLen+req.OutputLen:
				x.Note(prefixindex.OutcomeHeadroom)
			case x.QueueOf(holder) > 2*x.MinQueue()+affinityOverloadSlack:
				x.Note(prefixindex.OutcomeOverload)
			default:
				x.Note(prefixindex.OutcomeHit)
				return vi
			}
		}
	}
	if w := x.LeastLoad(); w >= 0 {
		if vi := viewIndexOf(replicas, w); vi >= 0 {
			return vi
		}
	}
	return p.scan.Pick(req, replicas)
}

// Score implements Scorer: the indexed prefix tokens the replica holds for
// the session (higher wins), else the index's capacity-weighted load score.
func (p *IndexedSessionAffinity) Score(req Request, r Replica) float64 {
	x := p.idx
	if x == nil {
		return p.scan.Score(req, r)
	}
	if req.Session != 0 {
		if holder, tokens, ok := x.HolderFor(req.Session); ok && holder == r.ID() {
			return float64(tokens)
		}
	}
	q := float64(x.QueueOf(r.ID()))
	if c := r.TotalKVPages(); c > 0 {
		return q / float64(c)
	}
	return q
}
