package metrics

import (
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
