package cluster

// Live load board: the exact tournament trees (internal/loadboard) that
// answer least-queue, weighted-capacity and session-affinity's load
// questions at route time, so a pick reads tree roots instead of every
// replica's outstanding count.
//
// The board is ground truth, like the pin-holder table. Each engine's
// load signal (engine.SetLoadObserver), which fires whenever its
// outstanding count moves — inject, completion, crash — queues the
// replica on the dirty list; lifecycle transitions (noteActive) flip its
// routable flag. Every read of the board first runs its sync hook
// (foldLoads), which folds the dirty list, re-reading each listed
// replica's count live, so every answer equals a scan of the routing view
// at that instant, and a timed pick includes the fold.
//
// A run with a board is routed, so it executes on one shard inline on the
// coordinator (shards.go): the list is appended to and folded on the
// coordinator's goroutine.

import (
	"repro/internal/loadboard"
	"repro/internal/prefixindex"
	"repro/internal/router"
)

// initLoadBoard builds the board for the policies that read
// router.Request.Loads. The cluster selects them by name, as it does the
// pin-holder table's reader, so a wrapping policy that forwards Name keeps
// the board. Every other policy runs without one.
func (c *Cluster) initLoadBoard() {
	switch c.cfg.Policy.Name() {
	case router.NameLeastQueue, router.NameWeightedCapacity, router.NameSessionAffinity:
	default:
		return
	}
	b := loadboard.New(len(c.replicas))
	for _, rep := range c.replicas {
		b.SetCapacity(rep.id, rep.kv.TotalPages())
		b.SetQueue(rep.id, rep.eng.OutstandingRequests())
		b.SetActive(rep.id, c.isRoutable(rep))
	}
	b.SetSync(c.foldLoads)
	c.loads = b
}

// initLoadObservers installs each engine's one load observer: it queues
// the replica for the load board and publishes the count to a per-change
// prefix index, whichever of the two the run keeps.
func (c *Cluster) initLoadObservers() {
	board := c.loads != nil
	perChange := c.idx != nil && c.idxSpec.HeartbeatEvery == 0
	for _, rep := range c.replicas {
		if !board && !perChange {
			rep.eng.SetLoadObserver(nil)
			continue
		}
		i := rep.id
		var emit func(prefixindex.EvKind, int, int64, int64)
		if perChange {
			emit = c.pubFns[i]
		}
		rep.eng.SetLoadObserver(func(outstanding int) {
			if board {
				c.loadDirty = append(c.loadDirty, int32(i))
			}
			if emit != nil {
				emit(prefixindex.EvLoad, 0, int64(outstanding), 0)
			}
		})
	}
}

// foldLoads is the board's sync hook: it re-reads the live outstanding
// count of every replica queued since the last read.
func (c *Cluster) foldLoads() {
	for _, i := range c.loadDirty {
		c.loads.SetQueue(int(i), c.replicas[i].eng.OutstandingRequests())
	}
	c.loadDirty = c.loadDirty[:0]
}
