package request

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestDeliverTokensAllocatesNothing: delivery folds tokens into running
// totals, so serving a request allocates nothing per token — including
// the first delivery, which used to size the per-token records.
func TestDeliverTokensAllocatesNothing(t *testing.T) {
	const runs = 100
	clock := simclock.New()
	reqs := make([]*Request, runs+1)
	for i := range reqs {
		reqs[i] = New(i, 0, 16, 64, 20)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := reqs[i]
		i++
		for k := 0; k < 8; k++ {
			r.DeliverTokens(clock, simclock.Time(k)*simclock.Time(time.Millisecond), 4)
		}
	})
	if allocs != 0 {
		t.Errorf("DeliverTokens allocates %.2f objects per stream, want 0", allocs)
	}
	if r := reqs[0]; r.Generated != 32 || r.Effective <= 0 {
		t.Errorf("stream 0: generated %d, effective %v", r.Generated, r.Effective)
	}
}

// deliverySchedule is a fuzzed delivery history for one request: its
// output length and rate (0 = instant consumer), the token count after
// which a crash retry resets it (-1 = none), and the (gap, batch) steps.
type deliverySchedule struct {
	out     int
	rate    float64
	retryAt int
	steps   []byte
}

func decodeSchedule(data []byte) deliverySchedule {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	s := deliverySchedule{out: 1 + (int(next())|int(next())<<8)%400, retryAt: -1}
	if b := next(); b%4 != 0 {
		s.rate = float64(1+b%40) + float64(next())/256
	}
	if b := next(); b%2 == 1 {
		s.retryAt = int(next()) % s.out
	}
	s.steps = data
	return s
}

// FuzzDeliverTokens drives one request through a fuzzed delivery schedule
// — gaps from zero to ~2.4 s, batches of 1-32 tokens, rates 0 and 1-41
// tok/s, an optional mid-stream retry reset — beside the event-per-token
// reference reader, and requires the online values to match the arrays:
// Effective equals the in-order weight sum over the reference's buffer
// occupancies bit for bit, LastTokenAt and FirstTokenAt are the last and
// first delivery instants, and the attached Timeline equals the
// reference's per-token arrays.
func FuzzDeliverTokens(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x40, 0, 0x13, 0x80, 1, 0x20, 0x10, 3, 0x00, 8, 0xff, 1})
	f.Add([]byte{0x10, 0, 0x00, 0x00, 0x05, 0x02, 4, 0x00, 4, 0x30, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSchedule(data)
		lazyClock, refClock := simclock.New(), simclock.New()
		r := New(0, 0, 16, s.out, s.rate)
		r.Timeline = &Timeline{}
		ref := &refReader{rate: s.rate, out: s.out}
		var times []simclock.Time
		now, steps := simclock.Time(0), s.steps
		for r.Generated < s.out {
			gap, batch := byte(0x40), byte(0xff)
			if len(steps) >= 2 {
				gap, batch, steps = steps[0], steps[1], steps[2:]
			}
			n := min(1+int(batch)%32, s.out-r.Generated)
			now += simclock.Time(int64(gap) * int64(gap) * int64(37*time.Microsecond))
			lazyClock.RunUntil(now)
			refClock.RunUntil(now)
			r.DeliverTokens(lazyClock, now, n)
			ref.deliver(refClock, now, n)
			for i := 0; i < n; i++ {
				times = append(times, now)
			}
			if r.Effective != ref.effective() || r.LastTokenAt != now || r.FirstTokenAt != times[0] ||
				r.Generated != ref.generated || r.Consumed() != ref.consumed {
				t.Fatalf("after %d tokens at %v: effective %v/%v, last %v, first %v/%v, generated %d/%d, consumed %d/%d",
					len(times), now, r.Effective, ref.effective(), r.LastTokenAt, r.FirstTokenAt, times[0],
					r.Generated, ref.generated, r.Consumed(), ref.consumed)
			}
			if s.retryAt >= 0 && r.Generated > s.retryAt {
				s.retryAt = -1
				r.ResetForRetry(lazyClock)
				ref.reset(refClock)
				times = times[:0]
				if r.Effective != 0 || r.LastTokenAt != 0 || r.FirstTokenAt != 0 || len(r.Timeline.Times) != 0 {
					t.Fatalf("retry left effective %v, tokens at %v..%v, %d timeline entries",
						r.Effective, r.FirstTokenAt, r.LastTokenAt, len(r.Timeline.Times))
				}
			}
		}
		lazyClock.Run()
		refClock.Run()
		if !reflect.DeepEqual(r.Timeline.Buffers, ref.bufferAtGen) || !reflect.DeepEqual(r.Timeline.Times, times) {
			t.Fatalf("timeline buffers %v times %v, reference %v %v", r.Timeline.Buffers, r.Timeline.Times, ref.bufferAtGen, times)
		}
		if r.RebufferTotal != ref.rebuffer || !r.ConsumptionDone() || lazyClock.Now() != refClock.Now() {
			t.Fatalf("end: rebuffer %v/%v, done %v, clock %v/%v",
				r.RebufferTotal, ref.rebuffer, r.ConsumptionDone(), lazyClock.Now(), refClock.Now())
		}
	})
}
