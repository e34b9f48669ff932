package cluster

// Gateway prefix-index wiring (internal/prefixindex): replicas publish KV
// lifecycle events and load signals as they mutate; the gateway-side index
// consumes them after the spec's propagation delay, minus its drop rate,
// and indexed routing policies decide against that eventually-consistent
// view in O(1) instead of scanning the pool.
//
// Publication rides the choke points the engines already own: the KV
// manager's pin and mirror mutations (kvcache.SetPrefixPublisher) and the
// engine's outstanding-count changes (the load observer initLoadObservers
// installs; replaced by coordinator heartbeat digests when the spec sets a
// stride). Every publication is accounted on the fabric's index class —
// the control-plane traffic an event-sync gateway actually pays — and
// emitted to the flight recorder.
//
// A run with an index is routed, so it executes on one shard inline on the
// coordinator (shards.go): every publication reaches the index as it is
// emitted, in nondecreasing emission order, whether an engine event or a
// coordinator event (injection, migration installs, heartbeats) emits it.
//
// The degenerate spec (zero delay, zero drops, no heartbeat) applies every
// publication at its emission instant and schedules no clock events, so the
// index equals the live state at every routing decision and indexed
// policies reproduce their omniscient twins decision for decision.

import (
	"repro/internal/autoscale"
	"repro/internal/fabric"
	"repro/internal/kvcache"
	"repro/internal/obs"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/simclock"
)

// digestBuckets quantizes heartbeat free-page digests: the gateway sees a
// replica's free pool in sixteenths of its capacity, not exact pages —
// coarse load information is the point of a digest.
const digestBuckets = 16

// initPrefixIndex builds the gateway index when the run asks for one:
// explicitly via Config.PrefixIndex, or implicitly (with the degenerate
// synchronous spec) when the routing policy routes against an index. The
// implicit path keeps indexed policies usable anywhere an omniscient one
// is — tests iterating router.Names() included.
func (c *Cluster) initPrefixIndex() error {
	spec := c.cfg.PrefixIndex
	if spec == nil {
		if _, ok := c.cfg.Policy.(router.IndexBinder); !ok {
			return nil
		}
		spec = &prefixindex.Spec{} // degenerate: index == live state
	}
	idx, err := prefixindex.New(*spec, len(c.replicas))
	if err != nil {
		return err
	}
	c.idx, c.idxSpec = idx, *spec
	for _, rep := range c.replicas {
		idx.SeedReplica(rep.id, rep.kv.TotalPages(), kvcache.PageTokens)
		idx.SetActive(rep.id, rep.state == autoscale.Active)
	}
	if b, ok := c.cfg.Policy.(router.IndexBinder); ok {
		b.BindIndex(idx)
	}
	c.installPublishers()
	return nil
}

// installPublishers builds the per-replica emitters the KV hooks and the
// engines' load observers (initLoadObservers) publish through. Each
// replica owns a sequence counter (pubSeq); the drop decision is a
// deterministic function of (seed, replica, sequence), so a run
// reproduces its losses whatever the shard count. Fabric
// accounting for the publication stream is deferred: pubSeq already counts
// every wire event per replica, and settleIndexTraffic folds the totals
// into the index class's ledger at collection time — one ledger write per
// replica instead of one per event, with nothing reading the class ledger
// mid-run.
func (c *Cluster) installPublishers() {
	c.pubFns = make([]func(prefixindex.EvKind, int, int64, int64), len(c.replicas))
	c.pubSeq = make([]uint64, len(c.replicas))
	for _, rep := range c.replicas {
		i := rep.id
		clk := c.shardOf(i).clock
		rec := c.recFor(i) // recorders are fixed before publishers install
		emit := func(kind prefixindex.EvKind, session int, val, aux int64) {
			now := clk.Now()
			p := prefixindex.Pub{
				At:      now,
				ApplyAt: now.Add(c.idxSpec.PropagationDelay),
				Replica: i, Seq: c.pubSeq[i],
				Kind: kind, Session: session, Val: val, Aux: aux,
			}
			c.pubSeq[i]++
			// Only KV lifecycle events are lossy; load signals model a
			// reliable stream (heartbeats are themselves the recovery path).
			if kind == prefixindex.EvPin || kind == prefixindex.EvMirror {
				p.Dropped = prefixindex.Drop(c.idxSpec.Seed, i, p.Seq, c.idxSpec.DropRate)
			}
			if rec != nil {
				dropped := int64(0)
				if p.Dropped {
					dropped = 1
				}
				rec.Emit(now, obs.KindIndexPublish, i, -1, session,
					int64(kind), val, dropped, 0, kind.String())
			}
			c.idx.Publish(p)
		}
		// The KV pin and mirror hooks publish through emit; they are
		// installed with the pin-holder table's (initPinHolders).
		c.pubFns[i] = emit
	}
}

// settleIndexTraffic folds the publication stream's control-plane bytes
// into the fabric's index-class ledger: pubSeq counts every publication a
// replica put on the wire (dropped ones included — they consumed fabric
// bytes). Runs once at collection, on the coordinator with shards joined;
// the resulting ledger is identical to per-event accounting because
// nothing reads the class ledger before collection.
func (c *Cluster) settleIndexTraffic() {
	for i, n := range c.pubSeq {
		if n > 0 {
			c.fab.AccountN(fabric.ClassIndex, i, prefixindex.PubBytes, int64(n))
		}
	}
}

// scheduleHeartbeats installs the digest loop when the spec sets a stride:
// every HeartbeatEvery the coordinator publishes each in-service replica's
// outstanding count and bucket-quantized free pages. The loop is a
// coordinator event, so the engine reads are the same safe snapshot the
// control loop takes.
func (c *Cluster) scheduleHeartbeats() {
	if c.idx == nil || c.idxSpec.HeartbeatEvery == 0 {
		return
	}
	var beat func(now simclock.Time)
	beat = func(now simclock.Time) {
		c.publishDigests()
		if !c.done() || c.scaleToZeroPending() {
			c.clock.After(c.idxSpec.HeartbeatEvery, beat)
		}
	}
	c.clock.At(0, beat)
}

// publishDigests emits one heartbeat digest per in-service replica. Free
// pages quantize to digestBuckets of the replica's own capacity: the
// gateway's headroom view is deliberately coarse, like a load report field,
// not an allocator mirror.
func (c *Cluster) publishDigests() {
	for _, rep := range c.replicas {
		if !rep.state.InService() {
			continue
		}
		free := rep.kv.FreePages()
		quant := free
		if total := rep.kv.TotalPages(); total > 0 {
			quant = free * digestBuckets / total * total / digestBuckets
		}
		c.pubFns[rep.id](prefixindex.EvDigest, 0,
			int64(rep.eng.OutstandingRequests()), int64(quant))
	}
}

// noteActive mirrors a lifecycle transition into the index and the load
// board. Activation is control-plane state the gateway itself owns, so it
// applies synchronously: neither routes to a replica the cluster would not.
func (c *Cluster) noteActive(replica int, active bool) {
	if c.idx != nil {
		c.idx.SetActive(replica, active)
	}
	if c.loads != nil {
		c.loads.SetActive(replica, active)
	}
}
