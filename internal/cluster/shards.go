package cluster

// Sharded execution, the cluster's only event loop: replica i lives on
// shard i mod Shards (one shard when Config.Shards is 0 or 1), and each
// shard owns a private simclock sub-clock carrying that replica subset's
// engine events (iterations, end-of-reading events, KV transfers on the
// replica's own host links). The cluster's coordinator clock keeps
// everything cross-replica: arrivals and routing, the sampling and
// autoscale control loops, gateway drains, and migration completions.
//
// Execution alternates between the coordinator and the shards. Before the
// coordinator fires its next event at time T, every shard runs its own
// events strictly before T — in parallel when several have work — and then
// aligns its clock at T (simclock.AdvanceTo), so a cross-shard effect
// landing at T — an injected arrival, a migration install — observes a
// consistent "now" everywhere. At an exact tie the coordinator goes first.
// Shards never touch the coordinator clock, another shard's clock, or
// another shard's engines; the only cross-shard state written from shard
// goroutines is the per-shard first-token and publication buffers, merged
// on the coordinator at each barrier in deterministic order. Fabric class
// accounting is per-replica-row (single writer) and interconnect links are
// booked only by the coordinator, so bookings from parallel shards never
// race.
//
// The flight recorder follows the same single-writer discipline: each
// shard owns a recorder and profiler, and every emission routes by the
// event's replica (Cluster.recFor) — a replica's lifecycle events are
// written either by its shard goroutine or by the coordinator while the
// shards are quiescent, never both at once. The per-shard streams merge
// deterministically at collect on the total (time, replica, recorder,
// sequence) order, so exports are byte-identical at any shard count.
//
// The result is deterministic and — because engine event times are
// float-derived while coordinator timers tick at configured intervals, so
// cross-clock ties do not arise in practice — identical at every shard
// count; the determinism suite asserts deep equality, timed-out runs
// included. No clock fires an event past MaxSimTime.
//
// When the configuration needs no coordinator events at all — static
// replica set, round-robin routing, no migration, no sampling — arrivals
// are pre-routed onto the shard clocks at prime time and the whole run is
// one parallel drain with zero barriers.

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prefixindex"
	"repro/internal/request"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ttftSample is one shard-buffered first-token observation awaiting its
// barrier merge into the shared TTFT window.
type ttftSample struct {
	at      simclock.Time
	replica int
	ttft    time.Duration
}

// shard is one replica partition: a private sub-clock plus the scratch
// state its worker goroutine owns between barriers.
type shard struct {
	id    int
	clock *simclock.Clock
	// rec and prof are the flight-recorder sinks of this shard's replicas
	// (nil when the layer is off); see Cluster.recFor.
	rec  *obs.Recorder
	prof *obs.Profiler
	// arena batch-allocates fast-path arrival requests on the shard that
	// will serve them, keeping the hot-path allocator uncontended.
	arena request.Arena
	// ttft buffers first-token observations made by this shard's engines
	// since the last barrier (only filled when a TTFT-driven autoscale
	// policy is active).
	ttft []ttftSample
	// pubs buffers prefix-index publications emitted by this shard's
	// replicas since the last barrier; the coordinator merges them into
	// the index in (time, replica, sequence) order (index.go).
	pubs []prefixindex.Pub
}

// advance runs every shard event strictly before barrier — never past the
// deadline — then aligns the shard clock at the barrier. Runs on a worker
// goroutine when several shards have work, inline otherwise.
func (sh *shard) advance(barrier, deadline simclock.Time) {
	clk := sh.clock
	for {
		t := clk.Peek()
		if t >= barrier || t > deadline {
			break
		}
		clk.Step()
	}
	if barrier != simclock.Forever && barrier <= deadline {
		clk.AdvanceTo(barrier)
	}
}

// shardOf maps a replica id to its owning shard.
func (c *Cluster) shardOf(replica int) *shard {
	return c.shards[replica%len(c.shards)]
}

// fastShardPath reports whether the run needs no coordinator events:
// static replica set, round-robin routing (whose pick for arrival k is
// k mod replicas by construction), no migration, no sampling loop, and
// no event retention (the routed path emits arrival and route-decision
// events the fast path skips; attribution is fine — it reads only the
// replica-scoped lifecycle events the engines emit on either path).
// Arrivals then pre-route straight onto the shard clocks and the whole
// simulation is one barrier-free parallel drain.
func (c *Cluster) fastShardPath() bool {
	return c.cfg.Autoscale == nil &&
		c.chaos == nil &&
		!c.cfg.Migrate &&
		c.cfg.SampleEvery == 0 &&
		!c.cfg.Obs.Events &&
		c.idx == nil &&
		c.cfg.Policy.Name() == router.NameRoundRobin
}

// primeSharded schedules the workload's arrivals directly on the shard
// clocks (fast path only). Equivalent to the routed path: round-robin
// assigns arrival k to replica k mod N, requests allocate from the owning
// shard's arena, and arrival order within a shard follows arrival id.
func (c *Cluster) primeSharded(w trace.Workload) {
	n := len(c.replicas)
	for i, it := range w.Items {
		it := it
		id := i
		rep := c.replicas[i%n]
		rep.routed++
		sh := c.shardOf(rep.id)
		sh.clock.At(it.Arrival, func(now simclock.Time) {
			r := sh.arena.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
			r.Session, r.Turn = it.Session, it.Turn
			rep.eng.Inject(r, now)
		})
	}
	c.arrivalsDone = true
	for _, rep := range c.replicas {
		rep.eng.SetArrivalsDone()
	}
}

// runSharded is the cluster's main loop: step through the coordinator's
// events up to the deadline, then drain the shards. It reports whether the
// run timed out — work left on any clock past the deadline.
func (c *Cluster) runSharded(deadline simclock.Time) (timedOut bool) {
	for c.step(deadline) {
	}
	// Client read ticks are computed, not events (engine.ReadTicks): move
	// each shard clock on to its latest tick at or before the deadline.
	for _, rep := range c.replicas {
		if last, _ := rep.eng.ReadTicks(deadline); last > rep.eng.Clock().Now() {
			rep.eng.Clock().AdvanceTo(last)
		}
	}
	// Align every drained shard clock at the cluster's final instant, so an
	// idle replica's report (whose makespan falls back to its clock) does
	// not depend on its shard assignment. Shards still holding events
	// (timed out) keep their own position.
	end := c.endNow()
	timedOut = c.clock.Peek() != simclock.Forever
	for _, sh := range c.shards {
		if sh.clock.Peek() != simclock.Forever {
			timedOut = true
		} else {
			sh.clock.AdvanceTo(end)
		}
	}
	return timedOut
}

// step advances the run by one coordinator event: the shards first run
// their events before it, then the coordinator fires it. When the
// coordinator has nothing left at or before the deadline, step instead
// drains the shards up to the deadline and reports false.
func (c *Cluster) step(deadline simclock.Time) bool {
	next := c.clock.Peek()
	if next == simclock.Forever || next > deadline {
		c.advanceShards(simclock.Forever, deadline)
		return false
	}
	c.advanceShards(next, deadline)
	c.clock.Step()
	return true
}

// advanceShards brings every shard to the barrier: shards with runnable
// work execute it (in parallel when more than one has any — the common
// stretch between consecutive coordinator events has at most one, which
// runs inline without spawning), idle shards just align their clocks. The
// shard-buffered TTFT observations and index publications merge
// afterwards, on the coordinator.
func (c *Cluster) advanceShards(barrier, deadline simclock.Time) {
	busy := c.busyShards[:0]
	for _, sh := range c.shards {
		if t := sh.clock.Peek(); t < barrier && t <= deadline {
			busy = append(busy, sh)
		} else if barrier != simclock.Forever && barrier <= deadline {
			sh.clock.AdvanceTo(barrier)
		}
	}
	c.busyShards = busy
	switch len(busy) {
	case 0:
	case 1:
		busy[0].advance(barrier, deadline)
	default:
		var wg sync.WaitGroup
		wg.Add(len(busy))
		for _, sh := range busy {
			sh := sh
			go func() {
				defer wg.Done()
				sh.advance(barrier, deadline)
			}()
		}
		wg.Wait()
	}
	c.mergeTTFT()
	c.mergePubs()
}

// mergeTTFT folds the shard-local first-token observations gathered since
// the previous barrier into the shared TTFT window in deterministic
// (time, replica) order, so the control loop's P99 signal is independent
// of shard scheduling. Within one replica observations are already in
// time order, so the stable sort is a full ordering.
func (c *Cluster) mergeTTFT() {
	if c.ttftWin == nil {
		return
	}
	merged := c.ttftScratch[:0]
	for _, sh := range c.shards {
		merged = append(merged, sh.ttft...)
		sh.ttft = sh.ttft[:0]
	}
	c.ttftScratch = merged
	if len(merged) == 0 {
		return
	}
	slices.SortStableFunc(merged, func(a, b ttftSample) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.replica, b.replica)
	})
	for _, s := range merged {
		c.ttftWin.Observe(s.at, s.ttft)
	}
}

// endNow is the final simulation instant: the furthest clock across the
// coordinator and the shards (a drained shard's last event can outlast the
// last coordinator event).
func (c *Cluster) endNow() simclock.Time {
	t := c.clock.Now()
	for _, sh := range c.shards {
		if n := sh.clock.Now(); n > t {
			t = n
		}
	}
	return t
}

// eventsProcessed totals fired events across every clock of the run — a
// determinism witness: every shard count fires exactly the same events,
// just distributed over different sub-clocks.
func (c *Cluster) eventsProcessed() uint64 {
	n := c.clock.Processed()
	for _, sh := range c.shards {
		n += sh.clock.Processed()
	}
	return n
}
