package request

import (
	"fmt"

	"repro/internal/simclock"
)

// Tracker is the paper's Request Tracker component (§3.1): it registers
// every request, maintains per-state counts, and exposes the virtual buffer
// counters the scheduler reads. It also snapshots temporal series (queued
// and running counts over time) for the Figure 14/15 timelines.
type Tracker struct {
	all     []*Request
	byState [5]int

	// Temporal samples, appended by Sample.
	samples []Sample
}

// Sample is one point of the queued/running time series.
type Sample struct {
	At      simclock.Time
	Queued  int
	Running int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{}
}

// Register adds a request in its current state.
func (t *Tracker) Register(r *Request) {
	t.all = append(t.all, r)
	t.byState[r.State]++
}

// Transition moves a request between states, keeping counts consistent.
// Transitioning to the current state is a no-op.
func (t *Tracker) Transition(r *Request, to State) {
	if r.State == to {
		return
	}
	t.byState[r.State]--
	if t.byState[r.State] < 0 {
		panic(fmt.Sprintf("tracker: negative count for state %v", r.State))
	}
	r.State = to
	t.byState[to]++
}

// Remove unregisters a request, keeping state counts consistent. Used when
// a replica crashes and its orphaned requests are handed back to the
// gateway for retry elsewhere — the dead replica's results must not count
// them. Removing an unregistered request is a wiring bug and panics.
func (t *Tracker) Remove(r *Request) {
	for i, have := range t.all {
		if have == r {
			t.all = append(t.all[:i], t.all[i+1:]...)
			t.byState[r.State]--
			if t.byState[r.State] < 0 {
				panic(fmt.Sprintf("tracker: negative count for state %v", r.State))
			}
			return
		}
	}
	panic(fmt.Sprintf("tracker: removing unregistered request %d", r.ID))
}

// Count reports how many registered requests are in the given state.
func (t *Tracker) Count(s State) int { return t.byState[s] }

// Total reports the number of registered requests.
func (t *Tracker) Total() int { return len(t.all) }

// All returns the registered requests in registration order. The returned
// slice is the tracker's own; callers must not mutate it.
func (t *Tracker) All() []*Request { return t.all }

// FinishedAll reports whether every registered request finished generating.
func (t *Tracker) FinishedAll() bool {
	return t.byState[StateFinished] == len(t.all) && len(t.all) > 0
}

// Sample appends one point of the queued/running time series. "Queued"
// counts requests waiting for service (never admitted or preempted or
// loading), matching the paper's Figure 14; "running" matches Figure 15.
func (t *Tracker) Sample(at simclock.Time) {
	t.samples = append(t.samples, Sample{
		At:      at,
		Queued:  t.byState[StateQueued] + t.byState[StatePreempted] + t.byState[StateLoading],
		Running: t.byState[StateRunning],
	})
}

// Samples returns the recorded time series.
func (t *Tracker) Samples() []Sample { return t.samples }
