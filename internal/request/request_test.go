package request

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

func TestNewDefaults(t *testing.T) {
	r := New(7, simclock.FromSeconds(1), 128, 256, 20)
	if r.State != StateQueued {
		t.Errorf("state = %v", r.State)
	}
	if r.ContextLen() != 0 {
		t.Errorf("context before prefill = %d", r.ContextLen())
	}
	if r.FullContextLen() != 384 {
		t.Errorf("full context = %d", r.FullContextLen())
	}
	if r.BufferLen() != 0 || r.Stalled() {
		t.Error("fresh request should have empty buffer and no stall")
	}
}

func TestNewRejectsDegenerateLengths(t *testing.T) {
	for _, c := range []struct{ p, o int }{{0, 10}, {10, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(p=%d,o=%d) should panic", c.p, c.o)
				}
			}()
			New(0, 0, c.p, c.o, 10)
		}()
	}
}

func TestStateString(t *testing.T) {
	if StateQueued.String() != "queued" || StateFinished.String() != "finished" {
		t.Error("state names wrong")
	}
	if State(99).String() == "" {
		t.Error("unknown state should still format")
	}
}

func TestDeliverFirstTokenSetsTTFT(t *testing.T) {
	clock := simclock.New()
	r := New(0, simclock.FromSeconds(1), 10, 5, 10)
	clock.RunUntil(simclock.FromSeconds(3))
	r.DeliverTokens(clock, clock.Now(), 1)
	if r.FirstTokenAt != simclock.FromSeconds(3) {
		t.Errorf("first token at %v", r.FirstTokenAt)
	}
	if r.TTFT() != 2*time.Second {
		t.Errorf("TTFT = %v", r.TTFT())
	}
}

func TestConsumptionDrainsAtRate(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 10, 10) // reads 10 tok/s
	// Deliver all 10 tokens at t=0.
	r.DeliverTokens(clock, 0, 10)
	if r.Consumed() != 1 {
		t.Fatalf("first token consumed immediately at TTFT; consumed=%d", r.Consumed())
	}
	clock.RunUntil(simclock.FromSeconds(0.45))
	// At 0.45s: tokens at t=0, .1, .2, .3, .4 -> 5 consumed.
	if r.Consumed() != 5 {
		t.Errorf("consumed = %d at 0.45s, want 5", r.Consumed())
	}
	clock.Run()
	if !r.ConsumptionDone() {
		t.Error("all tokens should eventually be consumed")
	}
	if r.RebufferTotal != 0 {
		t.Errorf("no stalls expected, got %v", r.RebufferTotal)
	}
}

func TestStallAccounting(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 3, 10) // wants a token every 100ms
	r.DeliverTokens(clock, 0, 1)
	// Client consumed token 1 at t=0, wants token 2 at t=0.1; we deliver it
	// at t=0.5 -> 400ms stall.
	clock.RunUntil(simclock.FromSeconds(0.5))
	if !r.Stalled() {
		t.Fatal("client should be stalled waiting for token 2")
	}
	r.DeliverTokens(clock, clock.Now(), 1)
	if r.Stalled() {
		t.Error("delivery should clear the stall")
	}
	if got := r.RebufferTotal; got != 400*time.Millisecond {
		t.Errorf("rebuffer = %v, want 400ms", got)
	}
	// Token 3 delivered late again: wants it at 0.6, arrives 0.8 -> +200ms.
	clock.RunUntil(simclock.FromSeconds(0.8))
	r.DeliverTokens(clock, clock.Now(), 1)
	clock.Run()
	if got := r.RebufferTotal; got != 600*time.Millisecond {
		t.Errorf("total rebuffer = %v, want 600ms", got)
	}
	if !r.ConsumptionDone() {
		t.Error("consumption should complete")
	}
}

func TestBufferOccupancyRecorded(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 4, 1) // very slow reader
	r.DeliverTokens(clock, 0, 2)
	r.DeliverTokens(clock, simclock.FromSeconds(0.1), 2)
	// Token 1: buffer 1 (itself). Token 2: buffer 2. Then the client
	// consumed token 1 at t=0, so tokens 3 and 4 see buffers 2 and 3.
	want := []int32{1, 2, 2, 3}
	for i, w := range want {
		if r.BufferAtGen[i] != w {
			t.Errorf("BufferAtGen[%d] = %d, want %d (all=%v)", i, r.BufferAtGen[i], w, r.BufferAtGen)
		}
	}
}

func TestInstantConsumerNeverBuffers(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 5, 0)
	if !r.InstantConsumer() {
		t.Fatal("rate 0 should be instant")
	}
	r.DeliverTokens(clock, 0, 3)
	if r.BufferLen() != 0 {
		t.Errorf("instant consumer buffer = %d", r.BufferLen())
	}
	r.DeliverTokens(clock, simclock.FromSeconds(1), 2)
	clock.Run()
	if r.BufferLen() != 0 {
		// Tokens after the first batch are drained on the next delivery...
		t.Errorf("buffer = %d after final delivery", r.BufferLen())
	}
}

func TestDeliverPastOutputLenPanics(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 2, 10)
	defer func() {
		if recover() == nil {
			t.Error("overdelivery should panic")
		}
	}()
	r.DeliverTokens(clock, 0, 3)
}

func TestDeliverZeroIsNoop(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 2, 10)
	r.DeliverTokens(clock, 0, 0)
	if r.Generated != 0 {
		t.Error("zero delivery should not generate")
	}
}

func TestGenerationFinishSetsTimestamp(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 2, 10)
	r.DeliverTokens(clock, simclock.FromSeconds(1), 1)
	r.DeliverTokens(clock, simclock.FromSeconds(2), 1)
	if !r.GenerationDone() {
		t.Fatal("generation should be done")
	}
	if r.FinishedAt != simclock.FromSeconds(2) {
		t.Errorf("finished at %v", r.FinishedAt)
	}
}

func TestBufferSeconds(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 100, 20)
	r.DeliverTokens(clock, 0, 41)
	// 41 generated, 1 consumed immediately -> 40 buffered = 2s at 20 tok/s.
	if got := r.BufferSeconds(); got != 2.0 {
		t.Errorf("buffer seconds = %v (buffer=%d)", got, r.BufferLen())
	}
}

func TestCancelConsumption(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 10, 10)
	r.DeliverTokens(clock, 0, 5)
	r.CancelConsumption(clock)
	clock.Run()
	if r.Consumed() != 1 {
		t.Errorf("consumed = %d after cancel, want 1", r.Consumed())
	}
}

// Property: however tokens are delivered over time, consumption never
// exceeds generation, buffer stays non-negative, and the client eventually
// consumes everything with rebuffer >= 0.
func TestPropertyConsumptionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := simclock.New()
		out := rng.Intn(200) + 1
		r := New(0, 0, 16, out, float64(rng.Intn(40)+5))
		now := simclock.Time(0)
		remaining := out
		for remaining > 0 {
			n := rng.Intn(remaining) + 1
			remaining -= n
			now = now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
			clock.RunUntil(now)
			r.DeliverTokens(clock, now, n)
			if r.Consumed() > r.Generated || r.BufferLen() < 0 {
				return false
			}
		}
		clock.Run()
		return r.ConsumptionDone() && r.RebufferTotal >= 0 && r.Generated == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with all tokens delivered upfront, a rate-r client finishes
// consuming L tokens in exactly (L-1)/r seconds with zero rebuffering.
func TestPropertyUpfrontDeliveryNoStall(t *testing.T) {
	f := func(lenRaw, rateRaw uint8) bool {
		l := int(lenRaw%100) + 2
		rate := float64(rateRaw%30) + 1
		clock := simclock.New()
		r := New(0, 0, 8, l, rate)
		r.DeliverTokens(clock, 0, l)
		clock.Run()
		if r.RebufferTotal != 0 || !r.ConsumptionDone() {
			return false
		}
		want := simclock.Duration(float64(l-1) / rate)
		got := clock.Now().Sub(0)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTrackerTransitions(t *testing.T) {
	tr := NewTracker()
	r1 := New(1, 0, 10, 10, 10)
	r2 := New(2, 0, 10, 10, 10)
	tr.Register(r1)
	tr.Register(r2)
	if tr.Count(StateQueued) != 2 || tr.Total() != 2 {
		t.Fatalf("counts after register: queued=%d", tr.Count(StateQueued))
	}
	tr.Transition(r1, StateRunning)
	if tr.Count(StateQueued) != 1 || tr.Count(StateRunning) != 1 {
		t.Error("transition did not move counts")
	}
	tr.Transition(r1, StateRunning) // no-op
	if tr.Count(StateRunning) != 1 {
		t.Error("self-transition should not change counts")
	}
	tr.Transition(r1, StateFinished)
	tr.Transition(r2, StateFinished)
	if !tr.FinishedAll() {
		t.Error("all finished")
	}
}

func TestTrackerSamples(t *testing.T) {
	tr := NewTracker()
	r1 := New(1, 0, 10, 10, 10)
	r2 := New(2, 0, 10, 10, 10)
	r3 := New(3, 0, 10, 10, 10)
	tr.Register(r1)
	tr.Register(r2)
	tr.Register(r3)
	tr.Transition(r1, StateRunning)
	tr.Transition(r2, StatePreempted)
	tr.Sample(simclock.FromSeconds(1))
	tr.Transition(r2, StateLoading)
	tr.Transition(r3, StateRunning)
	tr.Sample(simclock.FromSeconds(2))
	s := tr.Samples()
	if len(s) != 2 {
		t.Fatalf("samples = %d", len(s))
	}
	// Sample 1: r1 running; r2 preempted + r3 queued => queued-ish 2.
	if s[0].Running != 1 || s[0].Queued != 2 {
		t.Errorf("sample 1 = %+v", s[0])
	}
	if s[1].Running != 2 || s[1].Queued != 1 {
		t.Errorf("sample 2 = %+v", s[1])
	}
	if tr.MaxRunning() != 2 || tr.MaxQueued() != 2 {
		t.Errorf("max running=%d queued=%d", tr.MaxRunning(), tr.MaxQueued())
	}
}

func TestTrackerEmptyNotFinished(t *testing.T) {
	tr := NewTracker()
	if tr.FinishedAll() {
		t.Error("empty tracker should not report finished")
	}
}

// refReader is the reference client the closed-form model is checked
// against: it puts one clock event on the queue per read tick, and each
// tick reads a buffered token or, finding the buffer empty, starts a stall
// that the next delivery ends.
type refReader struct {
	rate        float64
	out         int
	generated   int
	consumed    int
	stalled     bool
	stallStart  simclock.Time
	rebuffer    time.Duration
	bufferAtGen []int32
	lastTick    simclock.Time // latest read tick fired
	next        simclock.Handle
}

func (f *refReader) deliver(clock *simclock.Clock, now simclock.Time, n int) {
	first := f.generated == 0
	for i := 0; i < n; i++ {
		f.generated++
		f.bufferAtGen = append(f.bufferAtGen, int32(f.generated-f.consumed))
	}
	if first {
		f.consumeOne(clock)
	} else if f.stalled {
		f.rebuffer += now.Sub(f.stallStart)
		f.stalled = false
		f.consumeOne(clock)
	}
}

func (f *refReader) consumeOne(clock *simclock.Clock) {
	f.consumed++
	if f.consumed < f.out {
		f.next = clock.After(simclock.Duration(1/f.rate), func(now simclock.Time) { f.tick(clock, now) })
	}
}

func (f *refReader) tick(clock *simclock.Clock, now simclock.Time) {
	f.lastTick = now
	if f.consumed < f.generated {
		f.consumeOne(clock)
		return
	}
	f.stalled = true
	f.stallStart = now
}

// Property: on random delivery schedules — rates 5-40 tok/s, batches and
// gaps at random nanosecond instants off the read grid — the closed-form
// reader matches the event-per-token reference at every delivery (tokens
// read, buffer occupancies recorded, stall state, next read tick) and at
// the end (rebuffer total, stall state, and the clock's final instant,
// which the end-of-reading event must still reach).
func TestPropertyClosedFormMatchesEventPerToken(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		out := rng.Intn(300) + 1
		rate := 5 + 35*rng.Float64()
		lazyClock, refClock := simclock.New(), simclock.New()
		r := New(0, 0, 16, out, rate)
		ref := &refReader{rate: rate, out: out}
		now, lastDelivery := simclock.Time(0), simclock.Time(0)
		for r.Generated < out {
			n := rng.Intn(min(out-r.Generated, 16)) + 1
			now += simclock.Time(rng.Int63n(int64(400 * time.Millisecond)))
			lazyClock.RunUntil(now)
			refClock.RunUntil(now)
			r.DeliverTokens(lazyClock, now, n)
			ref.deliver(refClock, now, n)
			lastDelivery = now
			last, next := r.ReadTicks(now)
			if r.Consumed() != ref.consumed || r.Stalled() != ref.stalled ||
				next != ref.next.At() || max(last, lastDelivery) != max(ref.lastTick, lastDelivery) {
				t.Logf("seed %d at %v: consumed %d/%d stalled %v/%v next %v/%v last %v/%v",
					seed, now, r.Consumed(), ref.consumed, r.Stalled(), ref.stalled,
					next, ref.next.At(), last, ref.lastTick)
				return false
			}
		}
		lazyClock.Run()
		refClock.Run()
		if !reflect.DeepEqual(r.BufferAtGen, ref.bufferAtGen) {
			t.Logf("seed %d: buffer at generation %v, reference %v", seed, r.BufferAtGen, ref.bufferAtGen)
			return false
		}
		return r.RebufferTotal == ref.rebuffer && r.Stalled() == ref.stalled &&
			r.ConsumptionDone() && lazyClock.Now() == refClock.Now()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReadTickTieRule pins the tie rule: a read tick at exactly a delivery
// or cancel instant is applied before the delivery or cancel.
func TestReadTickTieRule(t *testing.T) {
	clock := simclock.New()
	r := New(0, 0, 10, 10, 10) // one read tick every 100ms
	r.DeliverTokens(clock, 0, 3)
	at := simclock.FromSeconds(0.1)
	clock.RunUntil(at)
	r.DeliverTokens(clock, at, 1)
	// The 0.1s tick read token 2 before token 4 landed: 4 - 2 buffered.
	if got := r.BufferAtGen[3]; got != 2 {
		t.Errorf("buffer at the tied delivery = %d, want 2", got)
	}
	clock.RunUntil(simclock.FromSeconds(0.2))
	r.CancelConsumption(clock)
	if got := r.Consumed(); got != 3 {
		t.Errorf("consumed = %d after a cancel tied with the 0.2s tick, want 3", got)
	}
}

// The per-op guard (aibrix pkg/cache pattern): a 1,024-token stream read
// at 20 tok/s and delivered in 8-token batches, the buffer probed after
// each batch as a scheduler would, costs zero allocations after its first
// delivery and at most one clock event — the end-of-reading event.
const (
	streamLen   = 1024
	streamRate  = 20
	streamBatch = 8
	streamGap   = 300 * time.Millisecond // batches arrive faster than they are read
)

// newStream returns a client that has taken the stream's first batch, on
// a clock in steady state: one recycled event slot ready, as any clock in
// a running simulation has.
func newStream() (*Request, *simclock.Clock) {
	clock := simclock.New()
	clock.At(0, func(simclock.Time) {})
	clock.Run()
	r := New(0, 0, 16, streamLen, streamRate)
	r.DeliverTokens(clock, 0, streamBatch)
	return r, clock
}

// readStream delivers the rest of the stream and runs the clock until the
// client has read every token.
func readStream(r *Request, clock *simclock.Clock) {
	for !r.GenerationDone() {
		clock.RunUntil(clock.Now().Add(streamGap))
		r.DeliverTokens(clock, clock.Now(), streamBatch)
		_ = r.BufferSeconds()
	}
	clock.Run()
}

func TestStreamReadAllocsAndEvents(t *testing.T) {
	const runs = 20
	reqs := make([]*Request, runs+1)
	clocks := make([]*simclock.Clock, runs+1)
	for i := range reqs {
		reqs[i], clocks[i] = newStream()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		readStream(reqs[i], clocks[i])
		i++
	})
	if allocs != 0 {
		t.Errorf("reading a stream allocates %.2f objects after its first delivery, want 0", allocs)
	}
	for i, r := range reqs {
		if !r.ConsumptionDone() || r.RebufferTotal != 0 {
			t.Fatalf("stream %d: done %v, rebuffer %v", i, r.ConsumptionDone(), r.RebufferTotal)
		}
		// The warm-up event of newStream is not the stream's.
		if fired := clocks[i].Processed() - 1; fired > 1 {
			t.Errorf("stream %d fired %d clock events, want <= 1", i, fired)
		}
	}
}

func BenchmarkStreamRead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, clock := newStream()
		b.StartTimer()
		readStream(r, clock)
	}
}
