package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestSessionsShape(t *testing.T) {
	cfg := SessionConfig{
		Sessions: 20,
		Duration: simclock.FromSeconds(120),
		Rates:    FixedRate(20),
		Seed:     5,
	}
	w := Sessions("s", cfg)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reassemble per-session turn sequences from the merged trace.
	type turn struct {
		item Item
	}
	bySession := map[int][]turn{}
	for _, it := range w.Items {
		if it.Session < 1 || it.Session > cfg.Sessions {
			t.Fatalf("item has session %d outside [1,%d]", it.Session, cfg.Sessions)
		}
		bySession[it.Session] = append(bySession[it.Session], turn{it})
	}
	if len(bySession) != cfg.Sessions {
		t.Fatalf("trace has %d sessions, want %d", len(bySession), cfg.Sessions)
	}
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for s, turns := range bySession {
		if n := len(turns); n < norm.MinTurns || n > norm.MaxTurns {
			t.Errorf("session %d has %d turns, want within [%d,%d]", s, n, norm.MinTurns, norm.MaxTurns)
		}
		for i, tn := range turns {
			if tn.item.Turn != i+1 {
				t.Fatalf("session %d turn %d labeled %d (merge broke turn order)", s, i+1, tn.item.Turn)
			}
			if i == 0 {
				continue
			}
			prev := turns[i-1].item
			if tn.item.Arrival <= prev.Arrival {
				t.Errorf("session %d turn %d arrives at %v, not after previous %v",
					s, i+1, tn.item.Arrival, prev.Arrival)
			}
			// The prompt grows by the previous full exchange plus a
			// followup of at least MinLen tokens (unless clamped at MaxLen).
			wantMin := prev.PromptLen + prev.OutputLen + norm.MinLen
			if wantMin > norm.MaxLen {
				wantMin = norm.MaxLen
			}
			if tn.item.PromptLen < wantMin {
				t.Errorf("session %d turn %d prompt %d < previous context + followup %d",
					s, i+1, tn.item.PromptLen, wantMin)
			}
			if tn.item.Rate != prev.Rate {
				t.Errorf("session %d changes consumption rate mid-conversation", s)
			}
		}
	}
}

func TestSessionsDeterministic(t *testing.T) {
	cfg := SessionConfig{Sessions: 10, Duration: simclock.FromSeconds(60), Seed: 11}
	a := Sessions("a", cfg)
	b := Sessions("a", cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different session traces")
	}
	cfg.Seed = 12
	c := Sessions("a", cfg)
	if reflect.DeepEqual(a.Items, c.Items) {
		t.Error("different seeds produced identical session traces")
	}
}

func TestSessionsSpikesClusterStarts(t *testing.T) {
	w := Sessions("spiky", SessionConfig{
		Sessions:   40,
		Duration:   simclock.FromSeconds(100),
		SpikeEvery: simclock.FromSeconds(50),
		Seed:       3,
	})
	// Half the sessions (spikeFraction) start exactly at the spike
	// instants 50s and 100s.
	starts := map[simclock.Time]int{}
	for _, it := range w.Items {
		if it.Turn == 1 {
			starts[it.Arrival]++
		}
	}
	spiked := starts[simclock.FromSeconds(50)] + starts[simclock.FromSeconds(100)]
	if spiked != 20 {
		t.Errorf("%d sessions start at spike instants, want 20", spiked)
	}
}

// normalizedDefaults is the zero config (plus the required session count)
// after Normalize.
var normalizedDefaults = SessionConfig{
	Sessions: 1, MinTurns: 3, MaxTurns: 8,
	FirstPromptMean: 512, FirstPromptStd: 128,
	FollowupMean: 64, FollowupStd: 16,
	OutputMean: 256, OutputStd: 64,
	MinLen: 16, MaxLen: 8192,
	Rates: FixedRate(20),
}

// checkSessionNormalize runs Normalize on each case, compares the result
// with the wanted config, and checks that normalizing again changes
// nothing.
func checkSessionNormalize(t *testing.T, cases []struct {
	name     string
	in, want SessionConfig
}) {
	t.Helper()
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("%s: Normalize() = %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Normalize() = %+v, want %+v", c.name, got, c.want)
		}
		if again, err := got.Normalize(); err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: normalizing twice = %+v, %v", c.name, again, err)
		}
	}
}

// TestSessionConfigNormalizeDefaults: every zero field takes its default.
func TestSessionConfigNormalizeDefaults(t *testing.T) {
	checkSessionNormalize(t, []struct {
		name     string
		in, want SessionConfig
	}{
		{"zero", SessionConfig{Sessions: 1}, normalizedDefaults},
	})
}

// TestSessionConfigNormalize: set fields stay, and a zero mean resets its
// standard deviation together with it.
func TestSessionConfigNormalize(t *testing.T) {
	set := SessionConfig{
		Sessions: 40, Duration: simclock.FromSeconds(90),
		SpikeEvery: simclock.FromSeconds(30), RampUp: true,
		MinTurns: 2, MaxTurns: 2,
		FirstPromptMean: 100, FirstPromptStd: 10,
		FollowupMean: 20, FollowupStd: 2,
		OutputMean: 50, OutputStd: 5,
		MinLen: 8, MaxLen: 1024,
		Rates: UniformRate{Lo: 5, Hi: 9},
		Seed:  4,
	}
	stdOnly := normalizedDefaults
	stdOnly.Sessions = 2
	checkSessionNormalize(t, []struct {
		name     string
		in, want SessionConfig
	}{
		{"set-fields-stay", set, set},
		{"std-without-mean-takes-default-pair",
			SessionConfig{Sessions: 2, FirstPromptStd: 1, FollowupStd: 1, OutputStd: 1}, stdOnly},
	})
}

// TestSessionConfigNormalizeInvalid: a bad session count or turn range is
// an error naming it, and Sessions panics with that error.
func TestSessionConfigNormalizeInvalid(t *testing.T) {
	cases := []struct {
		name string
		in   SessionConfig
		want string // substring of the error
	}{
		{"no-sessions", SessionConfig{}, "non-positive session count 0"},
		{"negative-sessions", SessionConfig{Sessions: -3}, "non-positive session count -3"},
		{"negative-min-turns", SessionConfig{Sessions: 1, MinTurns: -1}, "bad turn bounds [-1, 8]"},
		{"max-below-min", SessionConfig{Sessions: 1, MinTurns: 5, MaxTurns: 4}, "bad turn bounds [5, 4]"},
		{"max-below-default-min", SessionConfig{Sessions: 1, MaxTurns: 2}, "bad turn bounds [3, 2]"},
	}
	for _, c := range cases {
		_, err := c.in.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize() = %v, want an error containing %q", c.name, err, c.want)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Errorf("%s: Sessions panicked with %v, want %q", c.name, r, err)
				}
			}()
			Sessions("bad", c.in)
		}()
	}
}
