package request

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/simclock"
)

// bruteBelowAt is BufferBelowAt's reference: it steps a copy of the
// request one read tick at a time from t until BufferSeconds() < sec
// holds, and reports Forever when no read is left at t or none takes the
// buffer below sec.
func bruteBelowAt(r *Request, t simclock.Time, sec float64) simclock.Time {
	c := *r
	if _, next := c.ReadTicks(t); next == simclock.Forever && !c.Stalled() {
		return simclock.Forever // not started, done, cancelled or instant
	}
	u := t
	for {
		_, next := c.ReadTicks(u)
		if c.BufferSeconds() < sec {
			return u
		}
		if next == simclock.Forever {
			return simclock.Forever
		}
		u = next
	}
}

// streamAt builds a request whose client started reading at zero and had
// n tokens delivered in total: first+1 at zero, the rest at the given
// instant.
func streamAt(clock *simclock.Clock, rate float64, output, first, more int, at simclock.Time) *Request {
	r := New(1, 0, 16, output, rate)
	r.DeliverTokens(clock, 0, first+1)
	if more > 0 {
		clock.AdvanceTo(at)
		r.DeliverTokens(clock, at, more)
	}
	return r
}

func TestBufferBelowAt(t *testing.T) {
	ms := func(n int64) simclock.Time { return simclock.Time(n * int64(time.Millisecond)) }
	third := simclock.Time(simclock.Duration(1.0 / 3))
	cases := []struct {
		name string
		// build returns the request and the instant to ask at; the clock
		// is left at or before that instant.
		build func(c *simclock.Clock) (*Request, simclock.Time)
		sec   float64
		want  simclock.Time
	}{
		{"buffered crosses on a later tick", func(c *simclock.Clock) (*Request, simclock.Time) {
			// Rate 10: 20 buffered tokens after the first read at 0; the
			// buffer is 2 s at 0 and 0.4 s (below 0.5) after 16 more
			// reads, the 16th at 1.6 s.
			return streamAt(c, 10, 100, 20, 0, 0), 0
		}, 0.5, ms(1600)},
		{"asked between ticks", func(c *simclock.Clock) (*Request, simclock.Time) {
			return streamAt(c, 10, 100, 20, 0, 0), ms(1250)
		}, 0.5, ms(1600)},
		{"threshold hit exactly is not below", func(c *simclock.Clock) (*Request, simclock.Time) {
			// 5 tokens at rate 10 are exactly 0.5 s: not below 0.5 until
			// the next read.
			return streamAt(c, 10, 100, 5, 0, 0), 0
		}, 0.5, ms(100)},
		{"already below", func(c *simclock.Clock) (*Request, simclock.Time) {
			return streamAt(c, 10, 100, 3, 0, 0), ms(50)
		}, 0.5, ms(50)},
		{"stalled client", func(c *simclock.Clock) (*Request, simclock.Time) {
			// The last of three buffered tokens is read at 0.3 s; at 1 s
			// the client waits on an empty buffer.
			return streamAt(c, 10, 100, 3, 0, 0), ms(1000)
		}, 0.5, ms(1000)},
		{"stalled and threshold zero", func(c *simclock.Clock) (*Request, simclock.Time) {
			return streamAt(c, 10, 100, 3, 0, 0), ms(1000)
		}, 0, simclock.Forever},
		{"delivery after a stall restarts the grid", func(c *simclock.Clock) (*Request, simclock.Time) {
			// Dry from 0.2 s, 30 more tokens at 0.55 s: the client reads
			// one at once and the rest on ticks 0.65, 0.75, ...; 4 left
			// after 25 more reads, the 25th at 0.65 + 2.4 s.
			return streamAt(c, 10, 100, 1, 30, ms(550)), ms(550)
		}, 0.5, ms(3050)},
		{"fractional grid", func(c *simclock.Clock) (*Request, simclock.Time) {
			// Rate 3: ticks every 333,333,333 ns. 9 buffered tokens are
			// 3 s; below 1 s at 2 tokens, after 7 reads.
			return streamAt(c, 3, 100, 9, 0, 0), 0
		}, 1, 7 * third},
		{"reading done", func(c *simclock.Clock) (*Request, simclock.Time) {
			r := streamAt(c, 10, 6, 5, 0, 0)
			return r, ms(2000)
		}, 0.5, simclock.Forever},
		{"reading cancelled", func(c *simclock.Clock) (*Request, simclock.Time) {
			r := streamAt(c, 10, 100, 20, 0, 0)
			r.CancelConsumption(c)
			return r, 0
		}, 0.5, simclock.Forever},
		{"reading not started", func(c *simclock.Clock) (*Request, simclock.Time) {
			return New(1, 0, 16, 100, 10), 0
		}, 0.5, simclock.Forever},
		{"instant consumer", func(c *simclock.Clock) (*Request, simclock.Time) {
			return streamAt(c, 0, 100, 20, 0, 0), 0
		}, 0.5, simclock.Forever},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, at := tc.build(simclock.New())
			ref := bruteBelowAt(r, at, tc.sec)
			if got := r.BufferBelowAt(at, tc.sec); got != tc.want || ref != tc.want {
				t.Errorf("BufferBelowAt(%v, %v) = %v, brute force %v, want %v", at, tc.sec, got, ref, tc.want)
			}
		})
	}
}

// TestBufferBelowAtMatchesBruteForce sweeps random delivery histories,
// rates (fractional grids and instant consumers) and thresholds, many of
// them exact multiples of the tick, against the tick-stepping reference.
func TestBufferBelowAtMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rates := []float64{0, 1, 3, 7.3, 10, 20, 33.3}
	for i := 0; i < 2000; i++ {
		clock := simclock.New()
		rate := rates[rng.Intn(len(rates))]
		r := New(i, 0, 16, 1+rng.Intn(200), rate)
		now := simclock.Time(0)
		for k := rng.Intn(6); k >= 0 && !r.GenerationDone(); k-- {
			now += simclock.Time(rng.Intn(3000)) * simclock.Time(time.Millisecond)
			clock.AdvanceTo(now)
			r.DeliverTokens(clock, now, 1+rng.Intn(min(40, r.RemainingOutput())))
		}
		at := now + simclock.Time(rng.Intn(4000))*simclock.Time(time.Millisecond)
		if rng.Intn(8) == 0 {
			r.CancelConsumption(clock)
		}
		var sec float64
		switch rng.Intn(3) {
		case 0:
			sec = float64(rng.Intn(12)) / 2
		case 1:
			if rate > 0 {
				sec = float64(rng.Intn(60)) / rate // a whole number of ticks
			}
		case 2:
			sec = 3 * rng.Float64()
		}
		want := bruteBelowAt(r, at, sec)
		if got := r.BufferBelowAt(at, sec); got != want {
			t.Fatalf("case %d (rate %v, %d/%d generated, at %v, sec %v): got %v, brute force %v",
				i, rate, r.Generated, r.OutputLen, at, sec, got, want)
		}
		// Asking again at the same instant is stable.
		if got := r.BufferBelowAt(at, sec); got != want {
			t.Fatalf("case %d: second call got %v, want %v", i, got, want)
		}
	}
}
