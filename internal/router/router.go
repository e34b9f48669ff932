// Package router implements pluggable request-routing policies for the
// multi-replica cluster simulation: the gateway layer that fronts N engine
// replicas and decides, per arriving request, which replica serves it.
// Policies range from the stateless round-robin baseline to the AIBrix-
// style prefix-affinity policy that sticks multi-turn sessions to the
// replica holding their KV prefix and falls back to load balancing when no
// replica does.
//
// Policies are deterministic: given the same request sequence and replica
// states they always pick the same replica, so cluster simulations are
// exactly reproducible.
package router

import (
	"fmt"

	"repro/internal/loadboard"
)

// Request is the routing-relevant view of one arriving request.
type Request struct {
	ID int
	// Session marks multi-turn conversation membership (0 = stateless).
	// Affinity policies key on it.
	Session int
	// PromptLen and OutputLen are the request's token lengths.
	PromptLen, OutputLen int
	// PrefixHolders lists, in ascending ID order, the replicas whose
	// device KV pins a prefix of Session — every replica for which
	// CachedPrefixTokens(Session) > 0, in the view or not. The cluster
	// fills it from its pin-holder table for the session-affinity policy;
	// it is empty for stateless requests and for sessions nobody pins.
	PrefixHolders []int
	// Loads answers the load questions of least-queue, weighted-capacity
	// and session-affinity — LeastQueue, LeastLoad and MinQueue — over
	// exactly the replicas in the view. The cluster sets it to its live
	// load board for those policies, which read it on every pick; it is
	// nil for every other policy.
	//
	// Request is passed by value on every pick, so it is kept to eight
	// machine words: the Go register ABI passes it in registers, where a
	// larger one goes through memory. Hence a pointer here, not an
	// interface.
	Loads *loadboard.Board
}

// Replica is the router's read-only view of one engine replica.
type Replica interface {
	// ID is the replica's index in the cluster, stable across the run.
	ID() int
	// QueueDepth reports the replica's outstanding (queued + running)
	// request count.
	QueueDepth() int
	// FreeKVPages reports the replica's free device KV pages.
	FreeKVPages() int
	// TotalKVPages reports the replica's KV pool capacity in pages. In a
	// heterogeneous pool this is the capacity signal weighted policies
	// normalize by.
	TotalKVPages() int
	// FreeKVTokens reports the replica's free device KV capacity in
	// tokens (free pages × page granularity).
	FreeKVTokens() int
	// CachedPrefixTokens reports how many tokens of the session's prefix
	// the replica's KV cache still holds pinned (0 for unknown sessions).
	// Probing must not perturb the cache's eviction order.
	CachedPrefixTokens(session int) int
}

// Policy picks a serving replica for each arriving request. Implementations
// may keep state (e.g. the round-robin cursor); one Policy instance serves
// one cluster run.
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Pick returns the index into replicas of the chosen replica. The
	// slice is never empty and is in ascending ID order.
	Pick(req Request, replicas []Replica) int
}

// Scorer is an optional Policy extension for observability. Score reports
// the policy's figure of merit for routing req to r — the number the
// flight recorder attaches to route-decision events so a trace shows *why*
// a replica won, not just that it did. Scoring is read-only: it must not
// advance cursors or otherwise mutate policy state, and the routed outcome
// must be identical whether or not anyone calls it.
type Scorer interface {
	Score(req Request, r Replica) float64
}

// Policy names accepted by ByName.
const (
	NameRoundRobin             = "round-robin"
	NameLeastQueue             = "least-queue"
	NameLeastKV                = "least-kv"
	NameWeightedCapacity       = "weighted-capacity"
	NameSessionAffinity        = "session-affinity"
	NameIndexedLeastQueue      = "indexed-least-queue"
	NameIndexedSessionAffinity = "indexed-session-affinity"
)

// Names lists the built-in policy names. The indexed variants route
// against the event-published prefix index (see indexed.go); a cluster run
// binds its index to them automatically, defaulting to the synchronous
// index spec when none is configured.
func Names() []string {
	return []string{NameRoundRobin, NameLeastQueue, NameLeastKV,
		NameWeightedCapacity, NameSessionAffinity,
		NameIndexedLeastQueue, NameIndexedSessionAffinity}
}

// ByName constructs a fresh policy instance by name.
func ByName(name string) (Policy, error) {
	switch name {
	case NameRoundRobin:
		return NewRoundRobin(), nil
	case NameLeastQueue:
		return NewLeastQueue(), nil
	case NameLeastKV:
		return NewLeastKV(), nil
	case NameWeightedCapacity:
		return NewWeightedCapacity(), nil
	case NameSessionAffinity:
		return NewSessionAffinity(), nil
	case NameIndexedLeastQueue:
		return NewIndexedLeastQueue(), nil
	case NameIndexedSessionAffinity:
		return NewIndexedSessionAffinity(), nil
	default:
		return nil, fmt.Errorf("router: unknown policy %q (have %v)", name, Names())
	}
}

// RoundRobin cycles through replicas in index order, ignoring load: the
// stateless baseline every gateway ships.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a fresh round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return NameRoundRobin }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ Request, replicas []Replica) int {
	i := p.next % len(replicas)
	p.next++
	return i
}

// Score implements Scorer. Round-robin consults no load signal, so every
// replica scores zero; notably it does NOT advance the cursor.
func (p *RoundRobin) Score(_ Request, _ Replica) float64 { return 0 }

// LeastQueue routes to the replica with the fewest outstanding requests
// (queued + running), breaking ties by lowest replica ID. Tie-breaking on
// the ID rather than the slice position keeps picks stable as an
// autoscaled cluster's view, the shifting subset of active replicas,
// changes. The winner comes from Request.Loads.
type LeastQueue struct{}

// NewLeastQueue returns the least-queue policy.
func NewLeastQueue() *LeastQueue { return &LeastQueue{} }

// Name implements Policy.
func (p *LeastQueue) Name() string { return NameLeastQueue }

// Pick implements Policy.
func (p *LeastQueue) Pick(req Request, replicas []Replica) int {
	return viewIndexOf(replicas, req.Loads.LeastQueue())
}

// Score implements Scorer: the replica's outstanding queue depth (lower
// wins).
func (p *LeastQueue) Score(_ Request, r Replica) float64 {
	return float64(r.QueueDepth())
}

// LeastKV routes to the replica with the most free KV pages — memory
// headroom as the load signal — breaking ties by lowest replica ID.
type LeastKV struct{}

// NewLeastKV returns the least-KV policy.
func NewLeastKV() *LeastKV { return &LeastKV{} }

// Name implements Policy.
func (p *LeastKV) Name() string { return NameLeastKV }

// Pick implements Policy.
func (p *LeastKV) Pick(_ Request, replicas []Replica) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		fi, fb := replicas[i].FreeKVPages(), replicas[best].FreeKVPages()
		if fi > fb || (fi == fb && replicas[i].ID() < replicas[best].ID()) {
			best = i
		}
	}
	return best
}

// Score implements Scorer: the replica's free KV pages (higher wins).
func (p *LeastKV) Score(_ Request, r Replica) float64 {
	return float64(r.FreeKVPages())
}

// WeightedCapacity routes to the replica with the lowest outstanding load
// per unit of KV capacity — the heterogeneous-pool load balancer: a
// replica with twice the pool absorbs twice the queue before it looks as
// busy as its smaller peer. Ties break by larger capacity, then lowest
// replica ID (stable as an autoscaled cluster's active subset shifts).
// The winner comes from Request.Loads.
type WeightedCapacity struct{}

// NewWeightedCapacity returns the capacity-weighted policy.
func NewWeightedCapacity() *WeightedCapacity { return &WeightedCapacity{} }

// Name implements Policy.
func (p *WeightedCapacity) Name() string { return NameWeightedCapacity }

// Pick implements Policy.
func (p *WeightedCapacity) Pick(req Request, replicas []Replica) int {
	return viewIndexOf(replicas, req.Loads.LeastLoad())
}

// Score implements Scorer: outstanding load per unit of KV capacity (lower
// wins). A zero-capacity replica scores its raw queue depth.
func (p *WeightedCapacity) Score(_ Request, r Replica) float64 {
	q := float64(r.QueueDepth())
	if c := r.TotalKVPages(); c > 0 {
		return q / float64(c)
	}
	return q
}

// SessionAffinity sticks multi-turn requests to the replica holding their
// prefix KV (the replica reporting the largest pinned prefix for the
// session) — the AIBrix-style prefix-cache-aware routing policy. Under the
// unified residency model the prefix competes with live requests for
// pages, so the policy consults the target before sticking and falls back
// to the capacity-weighted pick when the target cannot serve the session
// well:
//
//   - Memory: a replica too full to hold the request's full lifetime
//     context (prompt plus decode growth, counting the pinned prefix
//     itself, which admission folds into the allocation) would evict the
//     very prefix the request came for, or preempt its neighbors.
//   - Load: a replica queueing far beyond its lightest peer (more than
//     2× the minimum queue plus a fixed slack) would stall the request
//     longer than recomputing the prefix elsewhere costs.
//
// In both cases the cluster may migrate the pinned prefix to the fallback
// replica instead of recomputing it. Stateless requests, first turns, and
// sessions whose prefix every replica evicted also fall back. The
// fallback is capacity-weighted: on a homogeneous pool it reduces to
// least-queue, and on a mixed pool it steers displaced sessions toward
// the replicas with the room to hold them.
//
// The prefix lookup is O(holders): Pick probes only the replicas named in
// Request.PrefixHolders (usually zero to two), each located in the view by
// ID, and the holder in the view with the most pinned tokens is the target
// (the lowest ID on a tie). The load side — the lightest queue behind the
// overload guard, read only once a holder passes the memory check, and
// the capacity-weighted fallback — is tree-root reads of Request.Loads.
type SessionAffinity struct {
	fallback WeightedCapacity
}

// affinityOverloadSlack is the queue-depth headroom an affinity target
// gets over 2× the cluster's lightest queue before it counts as
// overloaded.
const affinityOverloadSlack = 4

// NewSessionAffinity returns the session-affinity policy.
func NewSessionAffinity() *SessionAffinity { return &SessionAffinity{} }

// Name implements Policy.
func (p *SessionAffinity) Name() string { return NameSessionAffinity }

// Pick implements Policy.
func (p *SessionAffinity) Pick(req Request, replicas []Replica) int {
	if req.Session != 0 {
		best, bestTokens := -1, 0
		for _, id := range req.PrefixHolders {
			i := viewIndexOf(replicas, id)
			if i < 0 {
				continue // warming, draining, or crashed: not routable
			}
			if t := replicas[i].CachedPrefixTokens(req.Session); t > bestTokens {
				best, bestTokens = i, t
			}
		}
		// The pinned prefix adopts into the admission, so it counts as
		// headroom alongside the free pool; the request then grows by its
		// output during decode.
		if best >= 0 &&
			replicas[best].FreeKVTokens()+bestTokens >= req.PromptLen+req.OutputLen &&
			replicas[best].QueueDepth() <= 2*req.Loads.MinQueue()+affinityOverloadSlack {
			return best
		}
	}
	return p.fallback.Pick(req, replicas)
}

// Score implements Scorer: the pinned prefix tokens the replica holds for
// the request's session (higher wins), falling back to the capacity-
// weighted load score when the replica holds none. Read-only — it probes
// CachedPrefixTokens, which by the Replica contract does not perturb
// eviction order.
func (p *SessionAffinity) Score(req Request, r Replica) float64 {
	if req.Session != 0 {
		if t := r.CachedPrefixTokens(req.Session); t > 0 {
			return float64(t)
		}
	}
	return p.fallback.Score(req, r)
}

// viewIndexOf locates the replica with the given ID in a view in
// ascending ID order: the direct probe (the cluster's IDs are dense from
// 0, so an unscaled view holds replica i at i), then a binary search, and
// -1 when the replica is not in the view.
func viewIndexOf(replicas []Replica, id int) int {
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
