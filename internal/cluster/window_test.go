package cluster

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestFanOutGate tables the barrier fan-out gate's decision: a window's
// busy shards fan out only when it pays, or when the window is the
// unbounded final drain, or when a shard has no measured window yet.
func TestFanOutGate(t *testing.T) {
	bounded := simclock.FromSeconds(1)
	shards := func(avgs ...time.Duration) []*shard {
		var busy []*shard
		for i, a := range avgs {
			busy = append(busy, &shard{id: i, avgWindow: a})
		}
		return busy
	}
	below, above := fanoutCost/4, 3*fanoutCost
	for _, tc := range []struct {
		name    string
		busy    []*shard
		barrier simclock.Time
		procs   int
		want    bool
	}{
		{"one busy shard", shards(above), bounded, 2, false},
		{"unbounded window", shards(below, below), simclock.Forever, 2, true},
		{"no history", shards(0, 0), bounded, 2, true},
		{"no history beside a cheap shard", shards(0, below), bounded, 2, false},
		{"below cost", shards(below, below), bounded, 2, false},
		{"one shard below cost", shards(above, below), bounded, 2, false},
		{"at cost", shards(fanoutCost, fanoutCost), bounded, 2, true},
		{"above cost", shards(above, above, above), bounded, 4, true},
		{"one processor, above cost", shards(above, above), bounded, 1, false},
		{"one processor, unbounded", shards(above, above), simclock.Forever, 1, false},
	} {
		if got := fanOut(tc.busy, tc.barrier, tc.procs); got != tc.want {
			t.Errorf("%s: fanOut = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWindowAverage: advance folds each measured window into avgWindow —
// the first as is, later ones with ¼ weight — returns the instant the
// window ended, and leaves the shard aligned at the barrier.
func TestWindowAverage(t *testing.T) {
	sh := &shard{clock: simclock.New()}
	for i := 1; i <= 3; i++ {
		sh.clock.At(simclock.FromSeconds(float64(i)), func(simclock.Time) {})
	}
	start := time.Now()
	if end := sh.advance(simclock.FromSeconds(1.5), simclock.Forever, start); end.Before(start) {
		t.Fatalf("window ended at %v, before its start %v", end, start)
	}
	first := sh.avgWindow
	if first <= 0 {
		t.Fatalf("first window measured %v", first)
	}
	if sh.clock.Now() != simclock.FromSeconds(1.5) || sh.clock.Processed() != 1 {
		t.Fatalf("shard at %v after %d events, want 1.5s after 1", sh.clock.Now(), sh.clock.Processed())
	}
	sh.avgWindow = 4 * fanoutCost
	sh.advance(simclock.FromSeconds(2.5), simclock.Forever, time.Now())
	// The new window took d ≥ 0, so the average moves by (d-avg)/4: never
	// below ¾ of where it was.
	if sh.avgWindow == 4*fanoutCost || sh.avgWindow < 3*fanoutCost {
		t.Fatalf("a window moved the average from %v to %v, want a quarter step toward it",
			4*fanoutCost, sh.avgWindow)
	}
}
