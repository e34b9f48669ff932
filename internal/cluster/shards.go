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
// events strictly before T — fanned out, one goroutine per busy shard,
// when the window is worth it, otherwise inline on the coordinator one
// shard after another (advanceShards, fanOut) — and then aligns its clock
// at T (simclock.AdvanceTo), so a cross-shard effect
// landing at T — an injected arrival, a migration install — observes a
// consistent "now" everywhere. At an exact tie the coordinator goes first.
// Shards never touch the coordinator clock, another shard's clock, or
// another shard's engines; the only cross-shard state written by shards
// is the per-shard first-token and publication buffers, merged
// on the coordinator at each barrier in deterministic order. Fabric class
// accounting is per-replica-row (single writer), and interconnect links are
// booked only by the coordinator, so bookings from parallel shards never
// race. The same holds for interconnect path resolution: a replica pair's
// path (under the full mesh, its link) is created on the first
// BookBetween or ETABetween for the pair, and both run only in coordinator
// events (migrations, chaos replication, the migration cost model).
//
// The flight recorder follows the same single-writer discipline: each
// shard owns a recorder and profiler, and every emission routes by the
// event's replica (Cluster.recFor) — a replica's lifecycle events are
// written either while its shard runs a window or by the coordinator while
// the shards are quiescent, never both at once. The per-shard streams merge
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
// are pre-routed at prime time: each shard clock gets one arrival stream
// (simclock.Stream) over the ids of its replicas' arrivals, and the whole
// run is one parallel drain with zero barriers. Otherwise the arrivals
// are one stream on the coordinator clock. Either way a clock holds one
// pending arrival at a time, not one heap entry and closure per request.

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
// state it owns between barriers.
type shard struct {
	id    int
	clock *simclock.Clock
	// avgWindow is the running average wall time of this shard's measured
	// windows, ¼ weight on the newest; zero until one is measured. The
	// fan-out gate reads it (fanOut).
	avgWindow time.Duration
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
	// holders is the pin-holder table of this shard's replicas (nil when
	// nothing reads it); see holders.go.
	holders holderTable
	// loadDirty lists this shard's replicas whose outstanding count moved
	// since the load board's last read (loads.go).
	loadDirty []int32
}

// advance runs the shard's window (run), starting at the wall-clock
// instant start, folds the wall time it took into avgWindow, and returns
// the instant it ended, so shards that run inline chain their measurements, one
// clock read per shard. It measures the windows the fan-out gate decides —
// those where several shards have work — on a worker goroutine or inline.
func (sh *shard) advance(barrier, deadline simclock.Time, start time.Time) time.Time {
	sh.run(barrier, deadline)
	end := time.Now()
	if d := end.Sub(start); sh.avgWindow == 0 {
		sh.avgWindow = d
	} else {
		sh.avgWindow += (d - sh.avgWindow) / 4
	}
	return end
}

// run executes every shard event strictly before barrier — never past the
// deadline — then aligns the shard clock at the barrier.
func (sh *shard) run(barrier, deadline simclock.Time) {
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

// runSharded is the cluster's main loop: step through the coordinator's
// events up to the deadline, then drain the shards. It reports whether the
// run timed out — work left on any clock past the deadline.
func (c *Cluster) runSharded(deadline simclock.Time) (timedOut bool) {
	for c.step(deadline) {
	}
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
	timedOut = c.clock.Peek() != simclock.Forever
	for _, sh := range c.shards {
		if sh.clock.Peek() != simclock.Forever || late[sh.id] {
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

// fanoutCost is what fanning one barrier window out costs the coordinator
// beyond its shards' own work: a goroutine per busy shard and the wait on
// their WaitGroup. Measured as a fanned-out window's wall time minus its
// slower shard's run, on scale-affinity-500 (bench/, 2 vCPUs, Go 1.24):
// 8–9 µs per window at seed 7 and 10–11 µs at seed 11 with every one of
// its ~29,000 two-shard windows fanned out. Fan-outs that follow inline
// stretches, or big windows, cost more (13–16 µs: idle worker threads
// must be woken), so 10 µs errs toward fanning out.
const fanoutCost = 10 * time.Microsecond

// windowMode forces how barrier windows execute (tests only: the zero value
// lets fanOut decide, and nothing else sets it).
type windowMode uint8

const (
	windowGated windowMode = iota
	windowInline
	windowFanout
)

// fanOut is the fan-out gate: whether a window with these busy shards
// pays for one goroutine per shard. Which shard runs where changes no
// output (shards share nothing between barriers), so the gate only picks
// the faster mode. A single busy shard, or a single processor, always runs
// inline. An unbounded window — the fast path's one drain, the routed
// path's final drain — always fans out. A bounded window fans out only
// when no busy shard's recent windows average below fanoutCost; a shard
// with no measured window yet counts as paying.
func fanOut(busy []*shard, barrier simclock.Time, procs int) bool {
	if len(busy) < 2 || procs == 1 {
		return false
	}
	if barrier == simclock.Forever {
		return true
	}
	for _, sh := range busy {
		if sh.avgWindow != 0 && sh.avgWindow < fanoutCost {
			return false
		}
	}
	return true
}

// advanceShards brings every shard to the barrier: shards with runnable
// work execute it, idle shards just align their clocks. When fanOut says
// the window pays, each busy shard runs on its own goroutine; otherwise
// they run inline on the coordinator, one after another in shard order —
// the common stretch between two coordinator events holds only a few
// events per shard, far less work than a fan-out costs. The
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
	switch {
	case len(busy) == 0:
	case len(busy) == 1:
		t0 := c.prof.Begin()
		busy[0].run(barrier, deadline)
		c.prof.End(obs.PhaseBarrierInline, t0)
	case c.windowMode == windowFanout ||
		c.windowMode == windowGated && fanOut(busy, barrier, c.procs):
		t0 := c.prof.Begin()
		var wg sync.WaitGroup
		wg.Add(len(busy))
		for _, sh := range busy {
			sh := sh
			go func() {
				defer wg.Done()
				sh.advance(barrier, deadline, time.Now())
			}()
		}
		wg.Wait()
		c.prof.End(obs.PhaseBarrierFanout, t0)
	default:
		t0 := c.prof.Begin()
		at := time.Now()
		for _, sh := range busy {
			at = sh.advance(barrier, deadline, at)
		}
		c.prof.End(obs.PhaseBarrierInline, t0)
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
