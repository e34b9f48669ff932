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
//
// The index is the policies' one source: a winner the view does not hold
// (an index/view disagreement; in cluster runs the index's active set is
// the view) makes Pick return -1, which the cluster's route step rejects
// with the policy's name.

// IndexBinder is implemented by policies that route against a prefix
// index. The cluster binds its index to the policy before the run starts.
type IndexBinder interface {
	// BindIndex installs the index the policy reads. Must be called
	// before the first Pick.
	BindIndex(x *prefixindex.Index)
}

// IndexedLeastQueue routes to the index's least-queue tree winner — the
// same replica the omniscient LeastQueue would pick when the index is
// current — without touching any replica state. A stale winner digest
// diverts to the capacity-weighted winner.
type IndexedLeastQueue struct {
	idx *prefixindex.Index
}

// NewIndexedLeastQueue returns an indexed least-queue policy; BindIndex
// must run before its first Pick.
func NewIndexedLeastQueue() *IndexedLeastQueue { return &IndexedLeastQueue{} }

// Name implements Policy.
func (p *IndexedLeastQueue) Name() string { return NameIndexedLeastQueue }

// BindIndex implements IndexBinder.
func (p *IndexedLeastQueue) BindIndex(x *prefixindex.Index) { p.idx = x }

// Pick implements Policy.
func (p *IndexedLeastQueue) Pick(req Request, replicas []Replica) int {
	x := p.idx
	w := x.LeastQueue()
	if w >= 0 && !x.Fresh(w) {
		x.Note(prefixindex.OutcomeStale)
		w = x.LeastLoad()
	}
	return viewIndexOf(replicas, w)
}

// Score implements Scorer: the index's view of the replica's queue depth
// (lower wins).
func (p *IndexedLeastQueue) Score(_ Request, r Replica) float64 {
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
}

// NewIndexedSessionAffinity returns an indexed affinity policy; BindIndex
// must run before its first Pick.
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
	return viewIndexOf(replicas, x.LeastLoad())
}

// Score implements Scorer: the indexed prefix tokens the replica holds for
// the session (higher wins), else the index's capacity-weighted load score.
func (p *IndexedSessionAffinity) Score(req Request, r Replica) float64 {
	x := p.idx
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
