package cluster

// Replica lifecycle: the autoscaler control loop. Runs on the cluster's
// virtual clock every controlEvery; each tick sweeps draining
// replicas, gathers cluster signals, and executes the policy's decision.
//
//	off ──scaleUp──▶ warming ──Warmup elapses──▶ active
//	active ──scaleDown──▶ draining ──outstanding = 0, pins handed off──▶ off
//
// Scale-up optionally overlaps the warm-up latency with KV pre-warming:
// the hottest pinned session prefixes across the active replicas migrate
// to the warming replica over the interconnect mesh, so the sessions most
// likely to return find their KV waiting when the replica starts taking
// traffic. Scale-down routes no new work to the replica (enforced by
// Cluster.routable), lets in-flight requests finish, and hands pinned
// prefixes to the surviving replicas — or drops them when no peer can
// take them.

import (
	"sort"
	"time"

	"repro/internal/autoscale"
	"repro/internal/fabric"
	"repro/internal/kvcache"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/simclock"
)

// controlEvery is the autoscaler control-loop tick.
const controlEvery = time.Second

// event appends one lifecycle transition to the scale-event log.
func (c *Cluster) event(at simclock.Time, kind ScaleKind, replica int) {
	c.scaleEvents = append(c.scaleEvents, ScaleEvent{At: at, Kind: kind, Replica: replica})
}

// controlTick is one pass of the autoscaler control loop.
func (c *Cluster) controlTick(now simclock.Time) {
	t0 := c.prof.Begin()
	defer c.prof.End(obs.PhaseControlTick, t0)
	c.sweepDrained(now)
	s := c.signals()
	s.Arrivals = c.arrivalsThisTick
	c.arrivalsThisTick = 0
	s.Gateway = len(c.gateway)
	s.TickSeconds = controlEvery.Seconds()
	s.WarmupSeconds = c.cfg.Autoscale.Warmup.Seconds()
	if c.ttftWin != nil {
		s.P99TTFT = c.ttftWin.Quantile(now, 0.99)
	}
	c.recordControlSeries(now, s)
	d := c.cfg.Autoscale.Policy.Decide(s)
	if d != autoscale.Hold {
		// The decision event carries the headline signals that caused it
		// (the full vector is in the control series at the same instant).
		c.rec.Emit(now, obs.KindScaleDecision, -1, -1, 0,
			int64(s.Outstanding), int64(s.Gateway), int64(s.P99TTFT),
			s.KVUtil, d.String())
	}
	switch d {
	case autoscale.ScaleUp:
		c.scaleUp(now)
	case autoscale.ScaleDown:
		c.scaleDown(now, s.Active)
	}
}

// signals assembles the per-tick cluster view the policy decides from:
// the replica counts by state, and the outstanding requests and KV page
// utilization of the active set.
func (c *Cluster) signals() autoscale.Signals {
	s := autoscale.Signals{Min: c.cfg.Autoscale.Min, Max: c.cfg.Autoscale.Max}
	used, total := 0, 0
	for _, rep := range c.replicas {
		switch rep.state {
		case autoscale.Active:
			s.Active++
			s.Outstanding += rep.eng.OutstandingRequests()
			total += rep.kv.TotalPages()
			used += rep.kv.TotalPages() - rep.kv.FreePages()
		case autoscale.Warming:
			s.Warming++
		case autoscale.Draining:
			s.Draining++
		}
	}
	if total > 0 {
		s.KVUtil = float64(used) / float64(total)
	}
	return s
}

// scaleUp brings one more replica toward the active set. A draining
// replica is reactivated first — it is still warm, its KV is still
// resident, and cancelling the drain delivers capacity instantly — and
// only when none is draining does the lowest-ID off replica start paying
// the warm-up (and pre-warming, when enabled).
func (c *Cluster) scaleUp(now simclock.Time) {
	for _, rep := range c.replicas {
		if rep.state == autoscale.Draining {
			rep.state = autoscale.Active
			c.noteActive(rep.id, true)
			c.event(now, ScaleReactivate, rep.id)
			c.drainGateway(rep, now)
			return
		}
	}
	var target *replica
	for _, rep := range c.replicas {
		if rep.state == autoscale.Off {
			target = rep
			break
		}
	}
	if target == nil {
		return // every replica is already active or warming
	}
	target.state = autoscale.Warming
	target.sinceOn = now
	c.event(now, ScaleWarmup, target.id)
	if c.chaos != nil && target.eng.Crashed() {
		// Backfill: the warm-up path resurrects a crash-dead engine — the
		// replacement replica boots on the same slot.
		target.eng.ClearCrashed()
		c.ctr.Backfills++
	}
	if c.cfg.Autoscale.Prewarm {
		c.prewarm(target, now)
	}
	c.clock.After(c.cfg.Autoscale.Warmup, func(t simclock.Time) {
		if target.state == autoscale.Warming {
			target.state = autoscale.Active
			c.noteActive(target.id, true)
			c.event(t, ScaleActivate, target.id)
			c.drainGateway(target, t)
		}
	})
}

// prewarmTopK caps the pins shipped per pre-warm.
const prewarmTopK = 8

// prewarm overlaps a replica's warm-up with KV pre-warming: the hottest
// pinned session prefixes across the active replicas (merged most-recently-
// used first, larger prefixes and lower donor IDs breaking ties) migrate to
// the warming replica over the interconnect. The donors lose the pins —
// affinity routing will follow the sessions to the new replica, which is
// exactly the rebalancing a scale-up wants.
func (c *Cluster) prewarm(target *replica, now simclock.Time) {
	type candidate struct {
		donor *replica
		info  kvcache.PrefixInfo
		rank  int
	}
	var cands []candidate
	for _, rep := range c.replicas {
		if rep.state != autoscale.Active {
			continue
		}
		c.pinScratch = rep.kv.HottestPrefixes(c.pinScratch[:0], prewarmTopK)
		for rank, info := range c.pinScratch {
			cands = append(cands, candidate{donor: rep, info: info, rank: rank})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].rank != cands[j].rank {
			return cands[i].rank < cands[j].rank
		}
		if cands[i].info.Tokens != cands[j].info.Tokens {
			return cands[i].info.Tokens > cands[j].info.Tokens
		}
		return cands[i].donor.id < cands[j].donor.id
	})
	shipped := 0
	for _, cd := range cands {
		if shipped == prewarmTopK {
			break
		}
		if c.migratePin(cd.donor, target, cd.info.Session, fabric.ClassPrewarm, now,
			&c.ctr.Prewarms, &c.ctr.PrewarmedTokens, nil, nil) {
			shipped++
		}
	}
}

// scaleDown drains the active replica that will empty soonest: fewest
// outstanding requests, ties broken by highest ID (last scaled up, first
// drained — the reverse of scale-up order).
func (c *Cluster) scaleDown(now simclock.Time, active int) {
	if active <= c.cfg.Autoscale.Min {
		return
	}
	var target *replica
	for _, rep := range c.replicas {
		if rep.state != autoscale.Active {
			continue
		}
		if target == nil || rep.eng.OutstandingRequests() <= target.eng.OutstandingRequests() {
			target = rep
		}
	}
	if target == nil {
		return
	}
	target.state = autoscale.Draining
	c.noteActive(target.id, false)
	c.event(now, ScaleDrain, target.id)
	c.drainPins(target, now)
}

// drainPins hands a draining replica's pinned prefixes to the surviving
// active replicas — each pin migrates to the peer with the most free KV
// headroom (lowest ID on ties) — or drops them when no active peer
// exists. Headroom counts the pages already planned onto a peer in this
// pass: installs only charge the pool when the transfer lands, so
// FreeKVPages alone would send every pin to the same peer and overflow
// it. Idempotent: pins already on the wire are skipped, so it runs again
// at sweep time for pins created by requests that finished during the
// drain.
func (c *Cluster) drainPins(rep *replica, now simclock.Time) {
	planned := make(map[*replica]int)
	c.pinScratch = rep.kv.HottestPrefixes(c.pinScratch[:0], 0)
	for _, info := range c.pinScratch {
		var dst *replica
		head := 0
		for _, peer := range c.replicas {
			if peer.state != autoscale.Active {
				continue
			}
			if h := peer.kv.FreePages() - planned[peer]; dst == nil || h > head {
				dst, head = peer, h
			}
		}
		if dst == nil {
			if rep.eng.DropPrefix(info.Session, now) {
				c.ctr.DrainDroppedPins++
			}
			continue
		}
		if c.migratePin(rep, dst, info.Session, fabric.ClassDrain, now,
			&c.ctr.DrainMigrations, nil, nil, nil) {
			planned[dst] += info.Pages
		}
	}
}

// migratePin ships one pinned prefix from donor to target over the
// fabric, booked under the given transfer class and accounted against the
// given counters; every cross-replica transfer (routing migration,
// pre-warm, drain hand-off) funnels through it so the in/out-migration
// gating stays in one place — and so all three classes contend for the
// same topology links. onDone, if set, runs after the install attempt at
// transfer completion (the routing path injects its deferred request
// there); req is that path's deferred request, registered with the chaos
// flight so a crash or link flap that tears the transfer down can still
// deliver or retry it. It reports whether a migration started.
func (c *Cluster) migratePin(donor, target *replica, session int, class fabric.Class,
	now simclock.Time, count, tokenCount *int64, req *request.Request,
	onDone func(now simclock.Time)) bool {
	if c.chaos != nil && !c.linkUp(donor.id, target.id, now) {
		return false // the pair is flapped dark; the turn recomputes
	}
	tokens, bytes, ok := donor.kv.BeginMigrateOut(session)
	if !ok {
		return false
	}
	kind := obs.KindMigrateAccept
	switch class {
	case fabric.ClassPrewarm:
		kind = obs.KindPrewarm
	case fabric.ClassDrain:
		kind = obs.KindDrain
	}
	c.recFor(donor.id).Emit(now, kind, donor.id, -1, session,
		int64(target.id), int64(tokens), bytes, 0, "")
	*count++
	if tokenCount != nil {
		*tokenCount += int64(tokens)
	}
	c.migrationsInFlight++
	donor.outMigrations++
	target.inMigrations++
	var fl *flight
	_, done := c.fab.BookBetween(class, donor.id, target.id, now, bytes)
	handle := c.clock.At(done, func(t simclock.Time) {
		if fl != nil {
			c.removeFlight(fl)
		}
		donor.eng.CompletePrefixMigration(session, t)
		donor.outMigrations--
		target.inMigrations--
		if !target.kv.InstallPrefix(session, tokens, t) {
			c.ctr.MigrationDrops++
		}
		c.migrationsInFlight--
		if onDone != nil {
			onDone(t)
		}
	})
	if c.chaos != nil {
		fl = &flight{donor: donor, target: target, session: session, handle: handle, req: req}
		c.registerFlight(fl)
	}
	return true
}

// sweepDrained retires draining replicas whose work has run dry: no
// outstanding requests, nothing inbound on the wire (a routed request
// whose KV is still in flight is in no engine queue yet), and no pins
// left to hand off. Late pins — created by requests that finished after
// the drain began — get one more migration pass first.
func (c *Cluster) sweepDrained(now simclock.Time) {
	for _, rep := range c.replicas {
		if rep.state != autoscale.Draining {
			continue
		}
		if rep.eng.OutstandingRequests() > 0 || rep.inMigrations > 0 {
			continue
		}
		if rep.kv.ServablePins() > 0 {
			c.drainPins(rep, now)
		}
		if rep.outMigrations > 0 || rep.kv.ServablePins() > 0 {
			continue // transfers still on the wire; retry next tick
		}
		rep.state = autoscale.Off
		rep.busy += now.Sub(rep.sinceOn)
		rep.sinceOn = 0
		c.event(now, ScaleOff, rep.id)
	}
}
