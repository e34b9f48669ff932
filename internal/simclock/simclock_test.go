package simclock

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != Time(1500*time.Millisecond) {
		t.Errorf("FromSeconds(1.5) = %d", got)
	}
	if got := FromSeconds(2).Seconds(); got != 2.0 {
		t.Errorf("Seconds round-trip = %v", got)
	}
	base := FromSeconds(1)
	if got := base.Add(500 * time.Millisecond); got != FromSeconds(1.5) {
		t.Errorf("Add = %v", got)
	}
	if got := FromSeconds(3).Sub(FromSeconds(1)); got != 2*time.Second {
		t.Errorf("Sub = %v", got)
	}
	if got := Duration(0.25); got != 250*time.Millisecond {
		t.Errorf("Duration(0.25) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := FromSeconds(12.3456).String(); got != "12.346s" {
		t.Errorf("String = %q", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := New()
	var order []int
	c.At(FromSeconds(3), func(Time) { order = append(order, 3) })
	c.At(FromSeconds(1), func(Time) { order = append(order, 1) })
	c.At(FromSeconds(2), func(Time) { order = append(order, 2) })
	c.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Now() != FromSeconds(3) {
		t.Errorf("final time = %v", c.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	c := New()
	var order []int
	at := FromSeconds(1)
	for i := 0; i < 10; i++ {
		i := i
		c.At(at, func(Time) { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	c := New()
	var fired Time
	c.At(FromSeconds(5), func(now Time) {
		c.After(2*time.Second, func(now Time) { fired = now })
	})
	c.Run()
	if fired != FromSeconds(7) {
		t.Errorf("After fired at %v, want 7s", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	e := c.At(FromSeconds(1), func(Time) { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending before cancel")
	}
	c.Cancel(e)
	if e.Pending() {
		t.Fatal("event should not be pending after cancel")
	}
	c.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling again is a no-op.
	c.Cancel(e)
	c.Cancel(Handle{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := New()
	var events []Handle
	var fired []int
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, c.At(FromSeconds(float64(i)), func(Time) {
			fired = append(fired, i)
		}))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		c.Cancel(events[i])
	}
	c.Run()
	for _, v := range fired {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(fired) != 13 {
		t.Fatalf("fired %d events, want 13", len(fired))
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := New()
	fired := 0
	c.At(FromSeconds(1), func(Time) { fired++ })
	c.At(FromSeconds(10), func(Time) { fired++ })
	c.RunUntil(FromSeconds(5))
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if c.Now() != FromSeconds(5) {
		t.Errorf("now = %v, want 5s", c.Now())
	}
	// Event at 10s still pending.
	if c.Len() != 1 {
		t.Errorf("pending = %d, want 1", c.Len())
	}
	if c.Peek() != FromSeconds(10) {
		t.Errorf("peek = %v", c.Peek())
	}
}

func TestRunUntilInclusiveOfDeadline(t *testing.T) {
	c := New()
	fired := false
	c.At(FromSeconds(5), func(Time) { fired = true })
	c.RunUntil(FromSeconds(5))
	if !fired {
		t.Error("event exactly at deadline should fire")
	}
}

// TestRunUntilForeverReturns: RunUntil(Forever) drains the queue and
// returns, on a drained clock and on one with pending events; the clock
// stays at its last event.
func TestRunUntilForeverReturns(t *testing.T) {
	cases := []struct {
		name      string
		events    []Time // the 3s event schedules one more at 4s
		wantFired int
		wantNow   Time
	}{
		{"drained", nil, 0, 0},
		{"pending", []Time{FromSeconds(1), FromSeconds(3)}, 3, FromSeconds(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			fired := 0
			for _, at := range tc.events {
				c.At(at, func(now Time) {
					fired++
					if now == FromSeconds(3) {
						c.At(FromSeconds(4), func(Time) { fired++ })
					}
				})
			}
			done := make(chan struct{})
			go func() {
				c.RunUntil(Forever)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("RunUntil(Forever) did not return")
			}
			if fired != tc.wantFired {
				t.Errorf("fired = %d, want %d", fired, tc.wantFired)
			}
			if c.Now() != tc.wantNow || c.Len() != 0 {
				t.Errorf("now = %v with %d pending, want %v with none", c.Now(), c.Len(), tc.wantNow)
			}
		})
	}
}

func TestPeekEmptyQueue(t *testing.T) {
	c := New()
	if c.Peek() != Forever {
		t.Errorf("Peek on empty queue = %v, want Forever", c.Peek())
	}
	if c.Step() {
		t.Error("Step on empty queue should report false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.At(FromSeconds(1), func(Time) {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	c.At(FromSeconds(0.5), func(Time) {})
}

func TestNegativeAfterPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	c.After(-time.Second, func(Time) {})
}

func TestNilCallbackPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback should panic")
		}
	}()
	c.At(FromSeconds(1), nil)
}

func TestProcessedCountsOnlyFired(t *testing.T) {
	c := New()
	e := c.At(FromSeconds(1), func(Time) {})
	c.At(FromSeconds(2), func(Time) {})
	c.Cancel(e)
	c.Run()
	if c.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", c.Processed())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := New()
	depth := 0
	var schedule func(now Time)
	schedule = func(now Time) {
		depth++
		if depth < 100 {
			c.After(time.Millisecond, schedule)
		}
	}
	c.At(Zero, schedule)
	c.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if c.Now() != Zero.Add(99*time.Millisecond) {
		t.Errorf("final time = %v", c.Now())
	}
}

// Property: for any set of (time, id) pairs, events fire sorted by time with
// ties broken by insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) > 500 {
			offsets = offsets[:500]
		}
		c := New()
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, off := range offsets {
			i := i
			at := Time(off) * Time(time.Millisecond)
			c.At(at, func(now Time) { fired = append(fired, firing{now, i}) })
		}
		c.Run()
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: random interleavings of schedule/cancel never fire a cancelled
// event and always fire every non-cancelled one.
func TestPropertyCancelSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		fired := make(map[int]bool)
		cancelled := make(map[int]bool)
		var events []Handle
		n := 200
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Intn(1000)) * Time(time.Millisecond)
			events = append(events, c.At(at, func(Time) { fired[i] = true }))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				c.Cancel(events[i])
				cancelled[i] = true
			}
		}
		c.Run()
		for i := 0; i < n; i++ {
			if cancelled[i] && fired[i] {
				return false
			}
			if !cancelled[i] && !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.After(time.Duration(i%1000)*time.Microsecond, func(Time) {})
		if i%1024 == 1023 {
			c.Run()
		}
	}
	c.Run()
}

// A handle held past its event's firing must never affect the event that
// recycled the slot: Cancel through the stale handle is a no-op and Pending
// reports false, even though the underlying slot is live again.
func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	c := New()
	fired := false
	stale := c.At(FromSeconds(1), func(Time) {})
	c.Run() // fires and recycles the slot
	if stale.Pending() {
		t.Fatal("handle to a fired event should not be pending")
	}
	fresh := c.At(FromSeconds(2), func(Time) { fired = true })
	c.Cancel(stale) // must not cancel the recycled slot's new occupant
	if !fresh.Pending() {
		t.Fatal("stale Cancel reached the recycled event")
	}
	c.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if stale.At() != Forever {
		t.Errorf("stale At = %v, want Forever", stale.At())
	}
}

// Cancelled events must not linger in the queue until their deadline:
// once the cancelled fraction crosses the compaction threshold, the heap
// shrinks immediately even though none of the deadlines have passed.
func TestCancelledEventsCompacted(t *testing.T) {
	c := New()
	var hs []Handle
	n := 4 * compactAt
	for i := 0; i < n; i++ {
		hs = append(hs, c.At(FromSeconds(float64(1000+i)), func(Time) {}))
	}
	for _, h := range hs[1:] { // cancel all but the first
		c.Cancel(h)
	}
	if got := len(c.pq); got >= n/2 {
		t.Fatalf("heap holds %d slots after cancelling %d of %d events; compaction did not run", got, n-1, n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	fired := 0
	c.At(FromSeconds(1), func(Time) { fired++ })
	c.Run()
	if fired != 1 || c.Processed() != 2 {
		t.Fatalf("fired=%d processed=%d, want 1 and 2", fired, c.Processed())
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.At(FromSeconds(5), func(Time) {})
	c.AdvanceTo(FromSeconds(3))
	if c.Now() != FromSeconds(3) {
		t.Fatalf("now = %v, want 3s", c.Now())
	}
	c.AdvanceTo(FromSeconds(3)) // advancing to now is a no-op
	for _, bad := range []Time{FromSeconds(2), FromSeconds(6)} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceTo(%v) should panic", bad)
				}
			}()
			c.AdvanceTo(bad)
		}()
	}
}

// Steady-state scheduling must not allocate: fired and cancelled events are
// recycled through the free list, so a schedule/fire or schedule/cancel
// cycle reuses slots instead of growing the heap or the garbage collector's
// workload. (Mirrors aibrix's BenchmarkAddRequest allocation discipline.)
func TestScheduleFireCycleDoesNotAllocate(t *testing.T) {
	c := New()
	fn := func(Time) {}
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		c.After(time.Millisecond, fn)
	}
	c.Run()
	avg := testing.AllocsPerRun(1000, func() {
		h := c.After(time.Millisecond, fn)
		c.Cancel(h)
		c.After(2*time.Millisecond, fn)
		c.Run()
	})
	if avg > 0 {
		t.Errorf("schedule/cancel/fire cycle allocates %.1f objects per run, want 0", avg)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	c := New()
	fn := func(Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := c.After(time.Duration(i%1000)*time.Microsecond, fn)
		c.Cancel(h)
		if i%1024 == 1023 {
			c.Run()
		}
	}
	c.Run()
}

// Opening a stream allocates nothing per arrival, and firing its arrivals
// allocates nothing at all: the cursor holds one pending arrival, not one
// heap entry and closure per arrival.
func TestStreamDoesNotAllocatePerArrival(t *testing.T) {
	at := func(k int) Time { return Time(k) }
	fire := func(int, Time) {}
	open := func(n int) float64 {
		return testing.AllocsPerRun(10, func() { New().Stream(n, at, fire) })
	}
	if small, large := open(10), open(100_000); small != large {
		t.Errorf("opening a stream allocates %.1f objects at n=10 but %.1f at n=100,000", small, large)
	}
	c := New()
	c.Stream(1000, at, fire)
	if avg := testing.AllocsPerRun(500, func() { c.Step() }); avg > 0 {
		t.Errorf("firing a stream arrival allocates %.1f objects, want 0", avg)
	}
}

// deepHeapSize is the pending-event depth of a shard clock on the
// 500-replica round-robin benchmark when every arrival was its own event.
const deepHeapSize = 55_000

// BenchmarkStepDeepHeap fires events off a heap held at deepHeapSize
// pending events: every fired event schedules a replacement at a random
// offset, so each Step pays a full-depth pop and push.
func BenchmarkStepDeepHeap(b *testing.B) {
	c := New()
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	var i int
	var fn func(Time)
	fn = func(Time) {
		i++
		c.After(delays[i%len(delays)], fn)
	}
	for k := 0; k < deepHeapSize; k++ {
		c.After(delays[k%len(delays)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.Step()
	}
}

// BenchmarkStepShardHeap fires events off a heap held at the depths a
// cluster shard's clock holds (111 and 222 pending events, the range
// measured on the 500-replica benchmark workloads), each fired event
// scheduling its replacement 15–25 ms out, the span of one decode
// iteration, so each Step pays a pop and a push at that depth.
func BenchmarkStepShardHeap(b *testing.B) {
	for _, depth := range []int{111, 222} {
		b.Run(fmt.Sprintf("pending-%d", depth), func(b *testing.B) {
			c := New()
			rng := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, 4096)
			for i := range delays {
				delays[i] = 15*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
			}
			var i int
			var fn func(Time)
			fn = func(Time) {
				i++
				c.After(delays[i%len(delays)], fn)
			}
			for k := 0; k < depth; k++ {
				c.After(delays[k%len(delays)], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				c.Step()
			}
		})
	}
}

// Fired reads a reservation as an At-scheduled event with the same
// sequence number would have fired: Step passes each event it fires,
// stream arrivals included, which precede every reservation at their
// instant (they are on the first lane); AdvanceTo(t) stops before every
// event at t; RunUntil(deadline) passes every number reserved at or before
// the deadline, and no number reserved after it.
func TestReserveFired(t *testing.T) {
	nop := func(Time) {}
	fired := func(c *Clock, at Time, k Key) bool {
		k.At = at
		return c.Fired(k)
	}
	cases := []struct {
		name string
		run  func(c *Clock) []bool
		want []bool
	}{
		{"unfired before any event", func(c *Clock) []bool {
			s := c.Reserve()
			return []bool{fired(c, 0, s), fired(c, 5, s)}
		}, []bool{false, false}},
		{"reserved before an event at its instant", func(c *Clock) []bool {
			s := c.Reserve()
			var in bool
			c.At(5, func(Time) { in = fired(c, 5, s) })
			c.Step()
			return []bool{in, fired(c, 5, s)}
		}, []bool{true, true}},
		{"reserved after an event at its instant", func(c *Clock) []bool {
			var in bool
			var s Key
			c.At(5, func(Time) { in = fired(c, 5, s) })
			s = c.Reserve()
			c.At(6, nop)
			c.Step()
			after := fired(c, 5, s)
			c.Step()
			return []bool{in, after, fired(c, 5, s)}
		}, []bool{false, false, true}},
		{"reserved inside the event at its instant", func(c *Clock) []bool {
			var in bool
			var s Key
			c.At(5, func(Time) { s = c.Reserve(); in = fired(c, 5, s) })
			c.Step()
			return []bool{in, fired(c, 5, s), fired(c, 4, s)}
		}, []bool{false, false, true}},
		{"stream arrivals come first", func(c *Clock) []bool {
			before := c.Reserve()
			var in []bool
			c.Stream(2, func(int) Time { return 5 }, func(k int, _ Time) {
				in = append(in, fired(c, 5, before))
			})
			after := c.Reserve()
			c.Step()
			mid := fired(c, 5, after)
			c.Step()
			return append(in, mid, fired(c, 5, after))
		}, []bool{false, false, false, false}},
		{"first-lane events come first", func(c *Clock) []bool {
			before := c.Reserve()
			var in bool
			c.AtFirst(5, func(Time) { in = fired(c, 5, before) })
			c.At(5, nop)
			c.Step()
			mid := fired(c, 5, before)
			c.Step()
			return []bool{in, mid, fired(c, 5, before)}
		}, []bool{false, false, true}},
		{"AdvanceTo stops before its instant", func(c *Clock) []bool {
			s := c.Reserve()
			c.AdvanceTo(5)
			return []bool{fired(c, 4, s), fired(c, 5, s), fired(c, 6, s)}
		}, []bool{true, false, false}},
		{"AdvanceTo the current instant keeps the watermark", func(c *Clock) []bool {
			s := c.Reserve()
			c.At(5, nop)
			c.Step()
			c.AdvanceTo(5)
			return []bool{fired(c, 5, s)}
		}, []bool{true}},
		{"RunUntil passes its deadline", func(c *Clock) []bool {
			s := c.Reserve()
			c.At(3, nop)
			c.RunUntil(5)
			later := c.Reserve()
			return []bool{fired(c, 5, s), fired(c, 6, s), fired(c, 5, later)}
		}, []bool{true, false, false}},
		{"RunUntil before now keeps the watermark", func(c *Clock) []bool {
			var s Key
			c.At(5, func(Time) { s = c.Reserve() })
			c.Step()
			c.RunUntil(4)
			return []bool{fired(c, 5, s), c.Now() == 5}
		}, []bool{false, true}},
		{"Reserve takes a number and queues nothing", func(c *Clock) []bool {
			c.At(5, nop)
			s := c.Reserve()
			c.At(5, nop)
			return []bool{s.Seq == 1, c.seq == 3, c.Len() == 2}
		}, []bool{true, true, true}},
	}
	for _, tc := range cases {
		if got := tc.run(New()); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
