package metrics

import (
	"slices"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestTTFTWindowQuantile(t *testing.T) {
	w := NewTTFTWindow()

	// Empty window reads as no latency pressure.
	if got := w.Quantile(simclock.FromSeconds(5), 0.99); got != 0 {
		t.Errorf("empty window P99 = %v, want 0", got)
	}

	// Samples at t=1..5, values 1s..5s: P99 is the max, P50 the median.
	for i := 1; i <= 5; i++ {
		w.Observe(simclock.FromSeconds(float64(i)), time.Duration(i)*time.Second)
	}
	if got := w.Quantile(simclock.FromSeconds(5), 0.99); got != 5*time.Second {
		t.Errorf("P99 = %v, want 5s", got)
	}
	if got := w.Quantile(simclock.FromSeconds(5), 0.50); got != 3*time.Second {
		t.Errorf("P50 = %v, want 3s", got)
	}

	// At t=33 the samples stamped before t=3 have fallen out of the 30s
	// window: only 3..5 remain. At t=40 everything is gone.
	if got := w.Len(simclock.FromSeconds(33)); got != 3 {
		t.Errorf("Len at t=33 = %d, want 3", got)
	}
	if got := w.Quantile(simclock.FromSeconds(33), 0.50); got != 4*time.Second {
		t.Errorf("P50 after eviction = %v, want 4s", got)
	}
	if got := w.Quantile(simclock.FromSeconds(40), 0.99); got != 0 {
		t.Errorf("fully aged window P99 = %v, want 0", got)
	}
}

func TestTTFTWindowDefaultHorizon(t *testing.T) {
	w := NewTTFTWindow()
	w.Observe(0, time.Second)
	// Inside the default horizon the sample survives; past it, not.
	if got := w.Len(simclock.Time(DefaultTTFTWindow) - 1); got != 1 {
		t.Errorf("sample evicted inside the default horizon (len %d)", got)
	}
	if got := w.Len(simclock.Time(DefaultTTFTWindow) + simclock.FromSeconds(1)); got != 0 {
		t.Errorf("sample survived past the default horizon (len %d)", got)
	}
}

// refWindow is the copy-and-sort estimator TTFTWindow replaced: a FIFO of
// stamped samples whose quantile sorts a copy of the live window.
type refWindow struct {
	at     []simclock.Time
	values []time.Duration
}

func (r *refWindow) evict(now simclock.Time) {
	for len(r.at) > 0 && r.at[0] < now.Add(-DefaultTTFTWindow) {
		r.at, r.values = r.at[1:], r.values[1:]
	}
}

func (r *refWindow) quantile(now simclock.Time, q float64) time.Duration {
	r.evict(now)
	if len(r.values) == 0 {
		return 0
	}
	return Percentile(sortedCopy(r.values), q)
}

func sortedCopy(v []time.Duration) []time.Duration {
	c := slices.Clone(v)
	slices.Sort(c)
	return c
}

// FuzzTTFTWindow drives random observe / evict / quantile sequences —
// repeated values, same-instant stamps, jumps past the whole window — and
// requires every Len and Quantile, and the sorted side itself, to match
// the copy-and-sort reference. Its seed corpus is in
// testdata/fuzz/FuzzTTFTWindow.
func FuzzTTFTWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		w, ref := NewTTFTWindow(), &refWindow{}
		var now simclock.Time
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 4 {
			case 0: // observe at now; small values so duplicates are common
				v := time.Duration(arg%32) * 100 * time.Millisecond
				w.Observe(now, v)
				ref.at = append(ref.at, now)
				ref.values = append(ref.values, v)
			case 1: // advance the clock, sometimes past the whole window
				step := time.Duration(arg) * 250 * time.Millisecond
				if arg >= 240 {
					step = DefaultTTFTWindow + time.Duration(arg-240)*time.Second
				}
				now = now.Add(step)
			case 2: // quantile, including q at and beyond the ends
				q := float64(arg) / 200
				if got, want := w.Quantile(now, q), ref.quantile(now, q); got != want {
					t.Fatalf("t=%v q=%.3f: Quantile = %v, reference %v", now, q, got, want)
				}
			case 3:
				ref.evict(now)
				if got := w.Len(now); got != len(ref.values) {
					t.Fatalf("t=%v: Len = %d, reference %d", now, got, len(ref.values))
				}
			}
			ref.evict(now)
			w.evict(now)
			if want := sortedCopy(ref.values); !slices.Equal(w.sorted, want) {
				t.Fatalf("t=%v: sorted side %v, want %v", now, w.sorted, want)
			}
		}
	})
}
