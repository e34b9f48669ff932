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
type TTFTWindow struct {
	at      []simclock.Time
	values  []time.Duration
	scratch []time.Duration
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
}

// evict drops samples whose stamp has fallen out of the window ending at
// now.
func (w *TTFTWindow) evict(now simclock.Time) {
	cut := 0
	for cut < len(w.at) && w.at[cut] < now.Add(-DefaultTTFTWindow) {
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
	if len(w.values) == 0 {
		return 0
	}
	w.scratch = append(w.scratch[:0], w.values...)
	slices.Sort(w.scratch)
	return Percentile(w.scratch, q)
}
