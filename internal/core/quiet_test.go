package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/request"
	"repro/internal/simclock"
)

// liveStream builds a running request whose client started reading at
// start with first tokens delivered then (Generated = first), on a clock
// the caller advances. first == 0 leaves it mid-prefill.
func liveStream(clock *simclock.Clock, id int, rate float64, first, outputLen int, start simclock.Time) *request.Request {
	r := request.New(id, 0, 256, outputLen, rate)
	r.State = request.StateRunning
	if first > 0 {
		r.PrefilledTokens = 256
		clock.RunUntil(start)
		r.DeliverTokens(clock, start, first)
	}
	return r
}

// TestQuietUntil pins TokenFlow's horizon in each of its cases.
func TestQuietUntil(t *testing.T) {
	t0 := simclock.FromSeconds(10)
	sec := func(s float64) simclock.Time { return simclock.FromSeconds(s) }
	cases := []struct {
		name     string
		gateAge  float64 // seconds since the last full pass; < 0: none yet
		rate     float64
		buffered int // tokens buffered at t0 (read from t0 on)
		want     simclock.Time
	}{
		// Rate 10 from t0: 30 buffered tokens fall below 1 s (10 tokens)
		// after 21 reads, the 21st at t0 + 2.1 s.
		{"unstressed, no gate", -1, 10, 30, t0 + sec(2.1)},
		{"unstressed, gate ends first", 0.5, 10, 30, t0 + sec(2.1)},
		{"unstressed, gate ends last", 0.2, 10, 12, t0 + sec(0.8)},
		// A critical stream with the gate open runs a full pass at t0,
		// which closes the gate for one interval.
		{"critical, gate open", -1, 10, 5, t0 + sec(1)},
		{"critical, gated", 0.25, 10, 5, t0 + sec(0.75)},
		{"instant consumer, gated", 0.25, 0, 0, t0 + sec(0.75)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := simclock.New()
			r := liveStream(clock, 1, tc.rate, tc.buffered+1, 1000, t0)
			s := MustNew(DefaultConfig())
			if tc.gateAge >= 0 {
				s.ranFull, s.lastFull = true, t0-sec(tc.gateAge)
			}
			v := view(t, t0)
			v.Running = []*request.Request{r}
			d := s.Decide(v)
			if d.QuietUntil != tc.want {
				t.Errorf("quiet until %v, want %v", d.QuietUntil, tc.want)
			}
		})
	}

	// Nothing to promise with a request waiting or preempted.
	s := MustNew(DefaultConfig())
	v := view(t, t0)
	v.Waiting = []*request.Request{request.New(2, t0, 100, 100, 10)}
	if d := s.Decide(v); d.QuietUntil != 0 {
		t.Errorf("a waiting request still promised quiet until %v", d.QuietUntil)
	}
	// No stream to watch and no gate: quiet until a queue changes.
	s = MustNew(DefaultConfig())
	if d := s.Decide(view(t, t0)); d.QuietUntil != simclock.Forever {
		t.Errorf("an idle scheduler promised quiet until %v, want Forever", d.QuietUntil)
	}
}

// quietRates are the fuzzed clients' consumption rates: instant
// consumers, fractional read grids and whole ones.
var quietRates = []float64{0, 1, 3, 4, 7.3, 10, 20, 33.3}

// FuzzQuietHorizon holds TokenFlow's QuietUntil promise: over random
// running sets (instant consumers, buffered, drained and stalled clients,
// streams mid-prefill) and gate states, every Decide before the horizon
// returned at t0 — with only token deliveries in between — must return an
// empty decision and leave FullReschedules, FallbackPasses and the gate
// as they were.
func FuzzQuietHorizon(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{1, 20, 40, 2, 5, 10})
	f.Add(int64(2), uint8(3), []byte{5, 0, 3, 8, 1, 60, 0, 9, 9})
	f.Add(int64(3), uint8(11), []byte{6, 200, 30, 3, 40, 250})
	f.Add(int64(4), uint8(30), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, gate uint8, streams []byte) {
		rng := rand.New(rand.NewSource(seed))
		t0 := simclock.FromSeconds(30)
		clock := simclock.New()
		// Three bytes per stream: rate and output length, how long before
		// t0 its first tokens came, and how many (0 = mid-prefill).
		type spec struct {
			rate        float64
			start       simclock.Time
			first, outN int
		}
		var specs []spec
		for i := 0; i+3 <= len(streams) && len(specs) < 16; i += 3 {
			b := streams[i : i+3]
			first := int(b[2] % 64)
			if b[2] >= 224 {
				first = 0
			}
			specs = append(specs, spec{
				rate:  quietRates[int(b[0])%len(quietRates)],
				start: t0 - simclock.Time(b[1])*simclock.Time(100*time.Millisecond),
				first: first,
				outN:  first + 1 + int(b[0]>>3)*8,
			})
		}
		// Deliver in time order on the one clock.
		order := make([]int, len(specs))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(specs[a].start, specs[b].start) })
		running := make([]*request.Request, len(specs))
		for _, i := range order {
			sp := specs[i]
			running[i] = liveStream(clock, i+1, sp.rate, sp.first, sp.outN, sp.start)
		}
		clock.RunUntil(t0)

		s := MustNew(DefaultConfig())
		if gate > 0 {
			// Ages up to 2.3 intervals: some gates hold at t0, some expired.
			s.ranFull = true
			s.lastFull = t0 - simclock.Time(gate%24)*simclock.Time(100*time.Millisecond)
		}
		v := view(t, t0)
		v.Running = running
		horizon := s.Decide(v).QuietUntil
		full, fallback, ranFull, lastFull := s.FullReschedules, s.FallbackPasses, s.ranFull, s.lastFull

		end := horizon
		if end == simclock.Forever {
			end = t0 + simclock.FromSeconds(60)
		}
		now := t0
		for probe := 0; probe < 8 && end-now > 1; probe++ {
			at := now + simclock.Time(rng.Int63n(int64(end-now)))
			// Extra deliveries to random streams between probes.
			for k := rng.Intn(4); k > 0 && len(running) > 0; k-- {
				r := running[rng.Intn(len(running))]
				if r.Generated == 0 || r.GenerationDone() {
					continue
				}
				u := now + simclock.Time(rng.Int63n(int64(at-now)+1))
				clock.RunUntil(u)
				now = u
				r.DeliverTokens(clock, u, 1+rng.Intn(r.RemainingOutput()))
			}
			clock.RunUntil(at)
			now = at
			v.Now = at
			d := s.Decide(v)
			if len(d.Admit) != 0 || len(d.Preempt) != 0 {
				t.Fatalf("decision at %v before the horizon %v is not empty: %d admit, %d preempt",
					at, horizon, len(d.Admit), len(d.Preempt))
			}
			if s.FullReschedules != full || s.FallbackPasses != fallback || s.ranFull != ranFull || s.lastFull != lastFull {
				t.Fatalf("decide at %v before the horizon %v changed the scheduler: full %d→%d fallback %d→%d gate %v@%v→%v@%v",
					at, horizon, full, s.FullReschedules, fallback, s.FallbackPasses, ranFull, lastFull, s.ranFull, s.lastFull)
			}
		}
	})
}

// TestQuietHorizonIsTight checks the other side on a simple stream: the
// first Decide at the horizon itself runs a full pass.
func TestQuietHorizonIsTight(t *testing.T) {
	clock := simclock.New()
	t0 := simclock.FromSeconds(10)
	r := liveStream(clock, 1, 10, 31, 1000, t0)
	s := MustNew(DefaultConfig())
	v := view(t, t0)
	v.Running = []*request.Request{r}
	h := s.Decide(v).QuietUntil
	clock.RunUntil(h)
	v.Now = h
	s.Decide(v)
	if s.FullReschedules != 1 {
		t.Fatalf("no full pass at the horizon %v", h)
	}
}
