package cluster

// Pin-holder table: the exact map from a session to the replicas whose
// device KV pins its prefix, so session-affinity routing and the
// migration donor scan probe only those holders (usually zero to two)
// instead of every replica in the pool.
//
// The table is ground truth, not an eventually-consistent index: it is fed
// by the KV manager's pin hook (kvcache.SetPrefixPublisher), which fires
// with the session's new pinned-token count on every transition a
// PeekPrefix probe can see — pin insert and removal (eviction,
// adoption, supersession, migration completion, crash), migration staking
// and its abort. A replica is a holder exactly while its probe reports a
// positive count.
//
// A run that keeps the table is routed, so it executes on one shard
// inline on the coordinator (shards.go): engine events and coordinator
// events (injection, migration installs, crashes) write the one table on
// the coordinator's goroutine, and route time reads it there.

import (
	"slices"

	"repro/internal/prefixindex"
	"repro/internal/router"
)

// holderInline is how many holders a session keeps inline in its table
// entry before it spills into an overflow slice: a session pinned on more
// replicas than this is rare, so the common update allocates nothing.
const holderInline = 4

// holderSet is one session's holders, in ascending ID order:
// small[:n] while n <= holderInline, large once it grows past that.
type holderSet struct {
	n     int
	small [holderInline]int
	large []int
}

// ids returns the holders in ascending order.
func (h *holderSet) ids() []int {
	if h.n > holderInline {
		return h.large
	}
	return h.small[:h.n]
}

// add inserts a holder, keeping the order; an existing holder is a no-op.
func (h *holderSet) add(id int) {
	i, found := slices.BinarySearch(h.ids(), id)
	if found {
		return
	}
	switch {
	case h.n < holderInline:
		copy(h.small[i+1:h.n+1], h.small[i:h.n])
		h.small[i] = id
	case h.n == holderInline:
		h.large = append(h.large[:0], h.small[:]...)
		h.large = slices.Insert(h.large, i, id)
	default:
		h.large = slices.Insert(h.large, i, id)
	}
	h.n++
}

// remove deletes a holder; an absent one is a no-op.
func (h *holderSet) remove(id int) {
	i, found := slices.BinarySearch(h.ids(), id)
	if !found {
		return
	}
	if h.n <= holderInline {
		copy(h.small[i:h.n-1], h.small[i+1:h.n])
	} else {
		h.large = slices.Delete(h.large, i, i+1)
		if h.n-1 == holderInline {
			copy(h.small[:], h.large)
		}
	}
	h.n--
}

// holderTable maps a session to its holders.
// Values are stored inline, so tracking a session allocates no per-session
// object; an entry is deleted when its last holder leaves.
type holderTable map[int]holderSet

// set records whether replica pins session's prefix.
func (t holderTable) set(session, replica int, pinned bool) {
	h, ok := t[session]
	switch {
	case pinned:
		h.add(replica)
	case !ok:
		return
	default:
		h.remove(replica)
		if h.n == 0 {
			delete(t, session)
			return
		}
	}
	t[session] = h
}

// initPinHolders installs every replica's KV pin and mirror hooks. The
// hooks feed the prefix index when the run keeps one (index.go), and the
// pin-holder table when something reads it: the session-affinity policy,
// which the cluster selects by name (a wrapping policy forwards Name), or
// the migration donor scan when no index answers it. A run needing
// neither installs no hooks.
func (c *Cluster) initPinHolders() {
	c.holdersForPick = c.cfg.Policy.Name() == router.NameSessionAffinity
	if c.holdersForPick || (c.cfg.Migrate && c.idx == nil) {
		c.holders = holderTable{}
	}
	for _, rep := range c.replicas {
		i := rep.id
		var pin, mirror func(session, tokens int)
		if c.idx != nil {
			emit := c.pubFns[i]
			pin = func(session, tokens int) { emit(prefixindex.EvPin, session, int64(tokens), 0) }
			mirror = func(session, tokens int) { emit(prefixindex.EvMirror, session, int64(tokens), 0) }
		}
		if tbl := c.holders; tbl != nil {
			next := pin
			pin = func(session, tokens int) {
				tbl.set(session, i, tokens > 0)
				if next != nil {
					next(session, tokens)
				}
			}
		}
		if pin != nil {
			rep.kv.SetPrefixPublisher(pin, mirror)
		}
	}
}

// prefixHolders returns the ascending IDs of every replica pinning a
// prefix of session, in any lifecycle state, never nil. The slice is the
// cluster's scratch buffer, valid until the next call; the run must keep
// the table (initPinHolders).
func (c *Cluster) prefixHolders(session int) []int {
	out := c.holderScratch[:0]
	if out == nil {
		out = make([]int, 0, 4)
	}
	if h, ok := c.holders[session]; ok {
		out = append(out, h.ids()...)
	}
	c.holderScratch = out
	return out
}
