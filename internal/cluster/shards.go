package cluster

// Sharded execution, the cluster's only event loop: replica i lives on
// shard i mod Shards, and each shard owns a private simclock carrying that
// replica subset's engine events (iterations, end-of-reading events, KV
// transfers on the replica's own host links).
//
// A routed run — one that needs coordinator events at all (Config.routed)
// — has one shard, whose clock is the run's one clock. The coordinator
// schedules arrivals, routing, control loops, heartbeats, faults, retries
// and transfer completions on it through its handle (coordinator), on the
// clock's first lane (simclock.Clock.AtFirst): at an exact instant the
// coordinator goes first, so an effect landing at T — an injected
// arrival, a migration install — observes one consistent "now". The lane
// rests on engine events never scheduling coordinator events, which the
// clock checks. Every write to cross-replica state (the prefix index, the
// pin-holder table, the load board, the TTFT window) happens on the one
// goroutine, in simulated-time order.
//
// When the configuration needs no coordinator events — static replica
// set, round-robin routing, no migration, no sampling, no chaos, no index,
// no retained events — arrivals are pre-routed at prime time: each shard
// clock gets one arrival stream (simclock.Stream) over the ids of its
// replicas' arrivals, and the whole run is one drain with a goroutine per
// busy shard. That drain is the only place shard goroutines run, and it
// has no index, holder table, load board or TTFT window to share. Fabric
// class accounting is per-replica-row (single writer), and no
// interconnect link is booked, so the drain's shards share nothing.
//
// The flight recorder keeps one recorder and one profiler per shard
// clock, written only by the goroutine that runs the clock. The
// coordinator writes shard 0's, since it runs on that clock, so a routed
// run — every run that retains its events — records into one sink. The
// fast path's drain leaves a profiler per shard, which collect sums.
//
// The result is deterministic and identical at every shard count; the
// determinism suite asserts deep equality, timed-out runs included. No
// clock fires an event past MaxSimTime. Either way a clock holds one
// pending arrival at a time, not one heap entry and closure per request.

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// coordinator is the cluster's handle on the run's clock: everything it
// schedules goes on the first lane, ahead of every engine event at its
// instant, and it offers no other way to schedule, so no coordinator site
// can fall back to the engines' order.
type coordinator struct{ clock *simclock.Clock }

func (k coordinator) Now() simclock.Time       { return k.clock.Now() }
func (k coordinator) Cancel(h simclock.Handle) { k.clock.Cancel(h) }
func (k coordinator) At(at simclock.Time, fn func(now simclock.Time)) simclock.Handle {
	return k.clock.AtFirst(at, fn)
}
func (k coordinator) After(d time.Duration, fn func(now simclock.Time)) simclock.Handle {
	return k.clock.AtFirst(k.clock.Now().Add(d), fn)
}

// shard is one replica partition: a private clock plus the sinks and
// arena its replicas use.
type shard struct {
	id    int
	clock *simclock.Clock
	// rec and prof are the flight-recorder sinks of this shard's clock:
	// its replicas' and, on shard 0, the coordinator's (nil when the layer
	// is off).
	rec  *obs.Recorder
	prof *obs.Profiler
	// arena batch-allocates arrival requests on the shard that will serve
	// them: the fast path's on every shard, a routed run's on shard 0
	// (newRequest), keeping the hot-path allocator uncontended.
	arena request.Arena
}

// due reports whether the shard has an event to run by the deadline.
func (sh *shard) due(deadline simclock.Time) bool {
	t := sh.clock.Peek()
	return t != simclock.Forever && t <= deadline
}

// run executes every shard event up to the deadline.
func (sh *shard) run(deadline simclock.Time) {
	for sh.due(deadline) {
		sh.clock.Step()
	}
}

// newRequest carves a routed arrival's request out of shard 0's arena: a
// routed run is that one shard, and its coordinator runs on shard 0's
// clock.
func (c *Cluster) newRequest(id int, it trace.Item, now simclock.Time) *request.Request {
	r := c.shards[0].arena.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
	r.Session, r.Turn = it.Session, it.Turn
	return r
}

// shardOf maps a replica id to its owning shard.
func (c *Cluster) shardOf(replica int) *shard {
	return c.shards[replica%len(c.shards)]
}

// primeSharded opens one arrival stream per shard clock (fast path only).
// Equivalent to the routed path: round-robin assigns arrival k to replica
// k mod N, requests allocate from the owning shard's arena, and arrival
// order within a shard follows arrival id. The arrival ids are bucketed
// per shard into one backing array; no closure or clock event is
// allocated per arrival.
func (c *Cluster) primeSharded(w trace.Workload) {
	n := len(c.replicas)
	counts := make([]int, len(c.shards))
	for i := range w.Items {
		c.replicas[i%n].routed++
		counts[c.shardOf(i%n).id]++
	}
	ids := make([]int, len(w.Items))
	buckets := make([][]int, len(c.shards))
	for s, k := range counts {
		buckets[s], ids = ids[:0:k], ids[k:]
	}
	for i := range w.Items {
		s := c.shardOf(i % n).id
		buckets[s] = append(buckets[s], i)
	}
	for _, sh := range c.shards {
		sh, ids := sh, buckets[sh.id]
		sh.clock.Stream(len(ids),
			func(k int) simclock.Time { return w.Items[ids[k]].Arrival },
			func(k int, now simclock.Time) {
				id := ids[k]
				it := &w.Items[id]
				r := sh.arena.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
				r.Session, r.Turn = it.Session, it.Turn
				c.replicas[id%n].eng.Inject(r, now)
			})
	}
	c.arrivalsDone = true
}

// runSharded is the cluster's main loop: drain every shard clock up to the
// deadline. It reports whether the run timed out — work left on any clock
// past the deadline.
func (c *Cluster) runSharded(deadline simclock.Time) (timedOut bool) {
	c.drain(deadline)
	// A fused decode run's iterations, client read ticks and write-through
	// sync landings are applied or computed, not events
	// (engine.SettleUntil, engine.LastReadTick, kvcache.PendingSync): move
	// each shard clock on to the latest of them at or before the deadline,
	// where the last would have fired as an event. A landing past the
	// deadline is work left over, as its event would have been.
	late := make([]bool, len(c.shards))
	for _, rep := range c.replicas {
		iter := rep.eng.SettleUntil(deadline)
		sync, beyond := rep.kv.PendingSync(deadline)
		if last := max(iter, rep.eng.LastReadTick(deadline), sync); last > rep.eng.Clock().Now() {
			rep.eng.Clock().AdvanceTo(last)
		}
		if beyond {
			late[c.shardOf(rep.id).id] = true
		}
	}
	// Align every drained shard clock at the cluster's final instant, so an
	// idle replica's report (whose makespan falls back to its clock) does
	// not depend on its shard assignment. Shards still holding events
	// (timed out) keep their own position.
	end := c.endNow()
	for _, sh := range c.shards {
		if sh.clock.Peek() != simclock.Forever || late[sh.id] {
			timedOut = true
		} else {
			sh.clock.AdvanceTo(end)
		}
	}
	return timedOut
}

// drain runs every shard clock up to the deadline: inline when at most
// one shard has work, which is every routed run, and otherwise — only the
// fast path's drain — on a goroutine per busy shard, unless GOMAXPROCS
// is 1.
func (c *Cluster) drain(deadline simclock.Time) {
	busy := 0
	for _, sh := range c.shards {
		if sh.due(deadline) {
			busy++
		}
	}
	if busy <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, sh := range c.shards {
			sh.run(deadline)
		}
		return
	}
	t0 := c.prof.Begin()
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		if !sh.due(deadline) {
			continue
		}
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.run(deadline)
		}()
	}
	wg.Wait()
	c.prof.End(obs.PhaseShardDrain, t0)
}

// endNow is the final simulation instant: the furthest shard clock (a
// drained shard's last event can outlast the others').
func (c *Cluster) endNow() simclock.Time {
	var t simclock.Time
	for _, sh := range c.shards {
		t = max(t, sh.clock.Now())
	}
	return t
}

// eventsProcessed totals fired events across the shard clocks — a
// determinism witness: every shard count fires exactly the same events,
// just distributed over different clocks. A routed run's coordinator
// events are on shard 0's clock and count there once.
func (c *Cluster) eventsProcessed() uint64 {
	var n uint64
	for _, sh := range c.shards {
		n += sh.clock.Processed()
	}
	return n
}
