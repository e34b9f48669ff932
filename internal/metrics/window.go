package metrics

import (
	"slices"
	"time"

	"repro/internal/simclock"
)

// TTFTWindow is a sliding-window quantile estimator over observed
// time-to-first-token samples — the feedback signal of the slo-target
// autoscaling policy. Observations must arrive in nondecreasing virtual
// time (the simulation guarantees it); samples older than the window fall
// off the front. The estimator is deterministic: identical observation
// sequences yield identical quantiles.
//
// Beside the arrival-order FIFO (at, values) it keeps the same values in
// ascending order (sorted): an observation inserts by binary search and
// an eviction removes each leaving value, so a quantile is one read at
// its rank instead of a copy and sort of the whole window.
type TTFTWindow struct {
	at     []simclock.Time
	values []time.Duration
	sorted []time.Duration
}

// DefaultTTFTWindow is the estimator's observation horizon: long enough
// to cover a warm-up, short enough that a passed spike stops dominating
// the percentile.
const DefaultTTFTWindow = 30 * time.Second

// NewTTFTWindow builds an estimator over DefaultTTFTWindow.
func NewTTFTWindow() *TTFTWindow { return &TTFTWindow{} }

// Observe records one TTFT sample stamped at its first-token instant.
func (w *TTFTWindow) Observe(at simclock.Time, v time.Duration) {
	w.at = append(w.at, at)
	w.values = append(w.values, v)
	i, _ := slices.BinarySearch(w.sorted, v)
	w.sorted = slices.Insert(w.sorted, i, v)
}

// evict drops samples whose stamp has fallen out of the window ending at
// now.
func (w *TTFTWindow) evict(now simclock.Time) {
	cut := 0
	for cut < len(w.at) && w.at[cut] < now.Add(-DefaultTTFTWindow) {
		i, _ := slices.BinarySearch(w.sorted, w.values[cut])
		w.sorted = slices.Delete(w.sorted, i, i+1)
		cut++
	}
	if cut > 0 {
		w.at = w.at[cut:]
		w.values = w.values[cut:]
	}
}

// Len reports the samples still inside the window ending at now.
func (w *TTFTWindow) Len(now simclock.Time) int {
	w.evict(now)
	return len(w.at)
}

// Quantile reports the q-quantile of the samples inside the window ending
// at now (ceil-rank convention, matching Percentile), or 0 when the window
// is empty — "no recent first token" reads as no latency pressure.
func (w *TTFTWindow) Quantile(now simclock.Time, q float64) time.Duration {
	w.evict(now)
	if len(w.sorted) == 0 {
		return 0
	}
	return Percentile(w.sorted, q)
}
