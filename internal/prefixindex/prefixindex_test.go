package prefixindex

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

func mustNew(t *testing.T, spec Spec, n int) *Index {
	t.Helper()
	x, err := New(spec, n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		x.SeedReplica(i, 1000, 16)
		x.SetActive(i, true)
	}
	return x
}

// pub builds an applied-immediately publication for the degenerate index.
func pub(at simclock.Time, replica int, kind EvKind, session int, val, aux int64) Pub {
	return Pub{At: at, ApplyAt: at, Replica: replica, Kind: kind,
		Session: session, Val: val, Aux: aux}
}

// normCase is one Normalize input and the spec it must resolve to.
type normCase struct {
	name     string
	in, want Spec
}

// checkNormalize runs Normalize on each case, compares the result with
// want, and checks that normalizing twice changes nothing.
func checkNormalize(t *testing.T, cases []normCase) {
	t.Helper()
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("%s: Normalize() = %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: Normalize() = %+v, want %+v", c.name, got, c.want)
		}
		if again, err := got.Normalize(); err != nil || again != got {
			t.Errorf("%s: normalizing twice = %+v, %v; want %+v", c.name, again, err, got)
		}
	}
}

// TestSpecNormalizeDefaults: the zero spec is the synchronous index and
// stays zero; under heartbeats a zero staleness bound resolves to three
// heartbeats plus the propagation delay.
func TestSpecNormalizeDefaults(t *testing.T) {
	checkNormalize(t, []normCase{
		{"zero", Spec{}, Spec{}},
		{"heartbeat-derives-staleness",
			Spec{HeartbeatEvery: time.Second},
			Spec{HeartbeatEvery: time.Second, MaxStaleness: 3 * time.Second}},
		{"heartbeat-and-delay-derive-staleness",
			Spec{HeartbeatEvery: time.Second, PropagationDelay: 200 * time.Millisecond},
			Spec{HeartbeatEvery: time.Second, PropagationDelay: 200 * time.Millisecond,
				MaxStaleness: 3200 * time.Millisecond}},
	})
}

// TestSpecNormalize: set fields stay, and without heartbeats a zero
// staleness bound stays zero (per-change signals cannot go stale).
func TestSpecNormalize(t *testing.T) {
	set := Spec{PropagationDelay: time.Second, DropRate: 0.5, HeartbeatEvery: time.Second,
		MaxStaleness: 10 * time.Second, Seed: 7}
	checkNormalize(t, []normCase{
		{"set-fields-stay", set, set},
		{"no-heartbeat-no-staleness",
			Spec{PropagationDelay: time.Second, DropRate: 0.25},
			Spec{PropagationDelay: time.Second, DropRate: 0.25}},
		{"explicit-staleness-without-heartbeat-stays",
			Spec{MaxStaleness: time.Second}, Spec{MaxStaleness: time.Second}},
	})
}

// TestValidate: every out-of-range knob is an error that names it.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		in   Spec
		want string // substring of the error
	}{
		{"negative-delay", Spec{PropagationDelay: -time.Second}, "propagation delay -1s"},
		{"negative-drop-rate", Spec{DropRate: -0.1}, "drop rate -0.1"},
		{"drop-rate-1", Spec{DropRate: 1}, "drop rate 1"},
		{"NaN-drop-rate", Spec{DropRate: math.NaN()}, "drop rate NaN"},
		{"negative-heartbeat", Spec{HeartbeatEvery: -time.Second}, "heartbeat stride -1s"},
		{"negative-staleness", Spec{MaxStaleness: -time.Second}, "staleness bound -1s"},
	}
	for _, c := range cases {
		_, err := c.in.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize() = %v, want an error containing %q", c.name, err, c.want)
		}
		if _, err := New(c.in, 2); err == nil {
			t.Errorf("%s: New accepted the spec", c.name)
		}
	}
}

// TestTreeMatchesLinearScan drives random digests through the tournament
// trees and cross-checks every winner against the omniscient comparator's
// linear scan — the trees must reproduce least-queue and weighted-capacity
// decisions exactly, including tie-breaks and inactive exclusion.
func TestTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7, 64, 129} {
		x := mustNew(t, Spec{}, n)
		caps := make([]int, n)
		for i := range caps {
			caps[i] = 500 + rng.Intn(3)*500 // ties likely
			x.SeedReplica(i, caps[i], 16)
		}
		queues := make([]int, n)
		active := make([]bool, n)
		for i := range active {
			active[i] = true
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				queues[i] = rng.Intn(5) // small range forces ties
				x.Publish(pub(simclock.Time(step), i, EvLoad, -1, int64(queues[i]), 0))
			case 1:
				active[i] = !active[i]
				x.SetActive(i, active[i])
			case 2:
				queues[i] = rng.Intn(5)
				x.Publish(pub(simclock.Time(step), i, EvDigest, -1, int64(queues[i]), int64(rng.Intn(caps[i]))))
			}

			wantQ, wantL := -1, -1
			for j := 0; j < n; j++ {
				if !active[j] {
					continue
				}
				if wantQ < 0 || queues[j] < queues[wantQ] {
					wantQ = j
				}
				if wantL < 0 {
					wantL = j
					continue
				}
				lj, lb := queues[j]*caps[wantL], queues[wantL]*caps[j]
				if lj < lb || (lj == lb && caps[j] > caps[wantL]) {
					wantL = j
				}
			}
			if got := x.LeastQueue(); got != wantQ {
				t.Fatalf("n=%d step=%d: LeastQueue=%d want %d", n, step, got, wantQ)
			}
			if got := x.LeastLoad(); got != wantL {
				t.Fatalf("n=%d step=%d: LeastLoad=%d want %d", n, step, got, wantL)
			}
		}
	}
}

func TestSyncPublishAppliesImmediately(t *testing.T) {
	x := mustNew(t, Spec{}, 4)
	x.Publish(pub(0, 2, EvPin, 9, 512, 0))
	if r, tok, ok := x.HolderFor(9); !ok || r != 2 || tok != 512 {
		t.Fatalf("HolderFor = (%d, %d, %v), want (2, 512, true)", r, tok, ok)
	}
	x.Publish(pub(0, 2, EvPin, 9, 0, 0))
	if _, _, ok := x.HolderFor(9); ok {
		t.Fatal("evicted pin still indexed in sync mode")
	}
	if x.PendingLen() != 0 {
		t.Fatalf("sync mode left %d pending", x.PendingLen())
	}
}

func TestPropagationDelay(t *testing.T) {
	d := 100 * time.Millisecond
	x := mustNew(t, Spec{PropagationDelay: d}, 4)
	at := simclock.FromSeconds(1)
	x.AdvanceTo(at)
	x.Publish(Pub{At: at, ApplyAt: at.Add(d), Replica: 1, Kind: EvPin, Session: 7, Val: 256})
	if _, _, ok := x.HolderFor(7); ok {
		t.Fatal("pin visible before the propagation delay elapsed")
	}
	x.AdvanceTo(at.Add(d - 1))
	if _, _, ok := x.HolderFor(7); ok {
		t.Fatal("pin visible one tick early")
	}
	x.AdvanceTo(at.Add(d))
	if r, tok, ok := x.HolderFor(7); !ok || r != 1 || tok != 256 {
		t.Fatalf("HolderFor after delay = (%d, %d, %v), want (1, 256, true)", r, tok, ok)
	}
}

// TestStalePositiveAfterDroppedEvict covers the first staleness edge case:
// a pin's evict event is lost in flight, so the index keeps reporting a
// holder whose pin is gone. The index must keep serving the stale positive
// deterministically (the routed replica simply misses and recomputes —
// asserted at cluster level) rather than wedging or mutating.
func TestStalePositiveAfterDroppedEvict(t *testing.T) {
	x := mustNew(t, Spec{DropRate: 0.5}, 4)
	x.Publish(pub(0, 3, EvPin, 5, 1024, 0))
	evict := pub(1, 3, EvPin, 5, 0, 0)
	evict.Dropped = true
	x.Publish(evict)
	x.AdvanceTo(simclock.FromSeconds(100))
	if r, tok, ok := x.HolderFor(5); !ok || r != 3 || tok != 1024 {
		t.Fatalf("stale positive = (%d, %d, %v), want the dropped-evict holder (3, 1024, true)", r, tok, ok)
	}
	s := x.Stats()
	if s.Published != 2 || s.Dropped != 1 || s.Applied != 1 {
		t.Fatalf("stats = %+v, want Published=2 Dropped=1 Applied=1", s)
	}
	// A later pin event for the session self-heals the entry.
	x.Publish(pub(simclock.FromSeconds(100), 3, EvPin, 5, 0, 0))
	if _, _, ok := x.HolderFor(5); ok {
		t.Fatal("holder survived a subsequent applied evict")
	}
}

// TestMigrationDualHolder covers the second staleness edge case: a pin
// migrates between replicas and the new holder's pin event lands while the
// old holder's evict event is still in flight. Both replicas are indexed
// through the window — HolderFor must pick deterministically (most tokens,
// then lowest ID) — and the old holder drops out when the evict applies.
func TestMigrationDualHolder(t *testing.T) {
	d := time.Second
	x := mustNew(t, Spec{PropagationDelay: d}, 4)
	t0 := simclock.FromSeconds(1)
	x.Publish(Pub{At: t0, ApplyAt: t0.Add(d), Replica: 2, Kind: EvPin, Session: 8, Val: 640})
	x.AdvanceTo(t0.Add(d))

	// Migration completes on replica 0 at t1; its pin event beats the
	// donor's evict (emitted a beat later, e.g. batched with drain
	// accounting) to the gateway.
	t1 := simclock.FromSeconds(5)
	x.Publish(Pub{At: t1, ApplyAt: t1.Add(d), Replica: 0, Kind: EvPin, Session: 8, Val: 640})
	t2 := simclock.FromSeconds(6)
	x.Publish(Pub{At: t2, ApplyAt: t2.Add(d), Replica: 2, Kind: EvPin, Session: 8, Val: 0})

	x.AdvanceTo(t1.Add(d))
	if len(x.sessions[8]) != 2 {
		t.Fatalf("want both holders indexed mid-migration, have %d", len(x.sessions[8]))
	}
	if r, tok, ok := x.HolderFor(8); !ok || r != 0 || tok != 640 {
		t.Fatalf("dual-holder pick = (%d, %d, %v), want lowest-ID holder (0, 640, true)", r, tok, ok)
	}
	x.AdvanceTo(t2.Add(d))
	if len(x.sessions[8]) != 1 {
		t.Fatalf("evict landed but %d holders remain", len(x.sessions[8]))
	}
	if r, _, ok := x.HolderFor(8); !ok || r != 0 {
		t.Fatalf("post-migration holder = %d, want 0", r)
	}
}

func TestHolderForPrefersTokensThenID(t *testing.T) {
	x := mustNew(t, Spec{}, 4)
	x.Publish(pub(0, 3, EvPin, 4, 300, 0))
	x.Publish(pub(0, 1, EvPin, 4, 200, 0))
	if r, _, _ := x.HolderFor(4); r != 3 {
		t.Fatalf("want max-token holder 3, got %d", r)
	}
	x.Publish(pub(0, 1, EvPin, 4, 300, 0))
	if r, _, _ := x.HolderFor(4); r != 1 {
		t.Fatalf("want lowest-ID tie-break 1, got %d", r)
	}
	x.SetActive(1, false)
	if r, _, _ := x.HolderFor(4); r != 3 {
		t.Fatalf("inactive holder must not win; got %d want 3", r)
	}
	x.SetActive(3, false)
	if _, _, ok := x.HolderFor(4); ok {
		t.Fatal("all holders inactive but HolderFor reported one")
	}
}

func TestDonorFor(t *testing.T) {
	x := mustNew(t, Spec{}, 4)
	x.Publish(pub(0, 0, EvPin, 6, 400, 0))
	x.Publish(pub(0, 2, EvPin, 6, 700, 0))
	// Draining/inactive replicas still donate.
	x.SetActive(2, false)
	if r, tok, ok := x.DonorFor(6, 1, 0, 1000); !ok || r != 2 || tok != 700 {
		t.Fatalf("DonorFor = (%d, %d, %v), want (2, 700, true)", r, tok, ok)
	}
	// atLeast excludes donors no better than the routed replica already is.
	if _, _, ok := x.DonorFor(6, 1, 700, 1000); ok {
		t.Fatal("donor accepted at atLeast boundary; comparison must be strict")
	}
	// below excludes pins the prompt already covers.
	if r, _, ok := x.DonorFor(6, 1, 0, 700); !ok || r != 0 {
		t.Fatalf("want fallback donor 0 when 700-token pin is excluded, got (%d, %v)", r, ok)
	}
	// The routed replica never donates to itself.
	if _, _, ok := x.DonorFor(6, 2, 400, 1000); ok {
		t.Fatal("excluded replica returned as donor")
	}
}

func TestFreshness(t *testing.T) {
	hb := 2 * time.Second
	x := mustNew(t, Spec{HeartbeatEvery: hb, PropagationDelay: time.Second}, 2)
	// Effective staleness: 3*hb + delay = 7s.
	at := simclock.FromSeconds(10)
	x.Publish(Pub{At: at, ApplyAt: at.Add(time.Second), Replica: 0, Kind: EvDigest, Val: 3, Aux: 100})
	x.AdvanceTo(at.Add(time.Second))
	if !x.Fresh(0) {
		t.Fatal("fresh digest reported stale")
	}
	x.AdvanceTo(at.Add(7 * time.Second))
	if !x.Fresh(0) {
		t.Fatal("digest at the staleness boundary must still be fresh")
	}
	x.AdvanceTo(at.Add(7*time.Second + 1))
	if x.Fresh(0) {
		t.Fatal("digest past the staleness bound reported fresh")
	}
	if x.QueueOf(0) != 3 || x.FreeTokensOf(0) != 100*16 {
		t.Fatalf("digest payload lost: queue=%d freeTokens=%d", x.QueueOf(0), x.FreeTokensOf(0))
	}

	// Per-change mode has no staleness bound.
	y := mustNew(t, Spec{}, 2)
	y.AdvanceTo(simclock.FromSeconds(1e6))
	if !y.Fresh(1) {
		t.Fatal("per-change signalling must never go stale")
	}
}

func TestDropDeterministic(t *testing.T) {
	for seq := uint64(0); seq < 64; seq++ {
		for rep := 0; rep < 4; rep++ {
			a := Drop(7, rep, seq, 0.3)
			b := Drop(7, rep, seq, 0.3)
			if a != b {
				t.Fatalf("Drop(7, %d, %d) nondeterministic", rep, seq)
			}
			if Drop(7, rep, seq, 0) {
				t.Fatal("rate 0 dropped an event")
			}
		}
	}
	dropped := 0
	const trials = 20000
	for seq := uint64(0); seq < trials; seq++ {
		if Drop(7, 1, seq, 0.3) {
			dropped++
		}
	}
	got := float64(dropped) / trials
	if got < 0.25 || got > 0.35 {
		t.Fatalf("drop rate %v far from configured 0.3", got)
	}
}

func TestOutcomeCounters(t *testing.T) {
	x := mustNew(t, Spec{}, 2)
	for _, o := range []Outcome{OutcomeHit, OutcomeMiss, OutcomeStale, OutcomeHeadroom, OutcomeOverload} {
		x.Note(o)
		if got := x.TakeOutcome(); got != o {
			t.Fatalf("TakeOutcome = %v, want %v", got, o)
		}
		if got := x.TakeOutcome(); got != OutcomeNone {
			t.Fatalf("TakeOutcome not cleared: %v", got)
		}
	}
	s := x.Stats()
	if s.AffinityHits != 1 || s.AffinityMisses != 1 || s.StaleFallbacks != 1 ||
		s.HeadroomFallbacks != 1 || s.OverloadFallbacks != 1 {
		t.Fatalf("outcome counters = %+v", s)
	}
	if !OutcomeMiss.Fallback() || OutcomeHit.Fallback() || OutcomeNone.Fallback() {
		t.Fatal("Fallback classification wrong")
	}
}
