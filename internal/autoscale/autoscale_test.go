package autoscale_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/autoscale"
)

// tick is one scripted control tick: the signals fed in and the decision
// expected out.
type tick struct {
	s    autoscale.Signals
	want autoscale.Decision
}

// sig builds queue-pressure signals for active replicas with outstanding
// load in a 1..4 pool.
func sig(active, warming, outstanding int) autoscale.Signals {
	return autoscale.Signals{
		Active: active, Warming: warming, Min: 1, Max: 4,
		Outstanding: outstanding,
	}
}

// kvsig builds KV-utilization signals.
func kvsig(active int, util float64, outstanding int) autoscale.Signals {
	return autoscale.Signals{
		Active: active, Min: 1, Max: 4,
		Outstanding: outstanding, KVUtil: util,
	}
}

func runScript(t *testing.T, p autoscale.Policy, script []tick) {
	t.Helper()
	for i, tk := range script {
		if got := p.Decide(tk.s); got != tk.want {
			t.Fatalf("tick %d: Decide(%+v) = %v, want %v", i, tk.s, got, tk.want)
		}
	}
}

// script concatenates script segments.
func script(parts ...[]tick) []tick {
	var out []tick
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// repeat is n copies of one scripted tick.
func repeat(n int, tk tick) []tick {
	out := make([]tick, n)
	for i := range out {
		out[i] = tk
	}
	return out
}

// The reactive policies' hysteresis: scale up after a 2-tick streak, down
// after an 8-tick streak, then hold for a 4-tick cooldown.
const (
	upStreak   = 2
	downStreak = 8
	cooldown   = 4
)

// fires is a trigger held for a full streak: n-1 holds, then the action.
func fires(n int, s autoscale.Signals, d autoscale.Decision) []tick {
	return append(repeat(n-1, tick{s, autoscale.Hold}), tick{s, d})
}

func TestQueuePressureHysteresis(t *testing.T) {
	cases := []struct {
		name   string
		script []tick
	}{
		{
			// Sustained pressure scales up only after the streak, then the
			// cooldown swallows continued pressure.
			name: "sustained-pressure-one-scale-up",
			script: script(
				fires(upStreak, sig(1, 0, 20), autoscale.ScaleUp),
				repeat(cooldown, tick{sig(1, 1, 20), autoscale.Hold}),
				// Warming counts as provisioned: 20/2 >= 8 is still
				// pressured with the warm-up counted, so it fires again.
				fires(upStreak, sig(1, 1, 20), autoscale.ScaleUp),
			),
		},
		{
			// Load oscillating across the up threshold every tick never
			// completes a streak: no flapping.
			name: "oscillating-load-never-fires",
			script: []tick{
				{sig(2, 0, 20), autoscale.Hold}, // pressure 10: streak 1/2
				{sig(2, 0, 4), autoscale.Hold},  // pressure 2: streaks reset
				{sig(2, 0, 20), autoscale.Hold},
				{sig(2, 0, 4), autoscale.Hold},
				{sig(2, 0, 20), autoscale.Hold},
				{sig(2, 0, 4), autoscale.Hold},
			},
		},
		{
			// Idle pool shrinks only after the (longer) down streak, and
			// again only after the cooldown plus a fresh streak.
			name: "idle-scales-down-after-streak",
			script: script(
				fires(downStreak, sig(3, 0, 0), autoscale.ScaleDown),
				repeat(cooldown, tick{sig(2, 0, 0), autoscale.Hold}),
				fires(downStreak, sig(2, 0, 0), autoscale.ScaleDown),
			),
		},
		{
			// At Min the pool never shrinks; at Max (counting warming) it
			// never grows.
			name: "min-max-bounds-hold",
			script: script(
				repeat(2*downStreak, tick{sig(1, 0, 0), autoscale.Hold}),
				repeat(2*upStreak, tick{sig(3, 1, 100), autoscale.Hold}), // provisioned == max
			),
		},
		{
			// A shrink is judged against the post-shrink pool (4/3 < 8:
			// allowed). Afterwards, load alternating between shrinkable
			// and pressured resets both streaks every tick: no up/down
			// flapping at moderate load.
			name: "no-shrink-into-pressure",
			script: script(
				fires(downStreak, sig(4, 0, 4), autoscale.ScaleDown),
				repeat(cooldown, tick{sig(3, 0, 30), autoscale.Hold}),
				[]tick{
					{sig(3, 0, 3), autoscale.Hold},  // down streak 1
					{sig(3, 0, 24), autoscale.Hold}, // pressure 8: up streak 1, down reset
					{sig(3, 0, 3), autoscale.Hold},  // down streak 1 again
					{sig(3, 0, 24), autoscale.Hold},
					{sig(3, 0, 3), autoscale.Hold},
					{sig(3, 0, 24), autoscale.Hold},
					{sig(3, 0, 3), autoscale.Hold},
					{sig(3, 0, 24), autoscale.Hold},
					{sig(3, 0, 3), autoscale.Hold},
					{sig(3, 0, 24), autoscale.Hold},
				},
			),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runScript(t, autoscale.NewQueuePressure(), tc.script)
		})
	}
}

func TestKVUtilizationHysteresis(t *testing.T) {
	cases := []struct {
		name   string
		script []tick
	}{
		{
			// Hot memory scales up after the streak; the cooldown then
			// holds, and a fresh streak fires again.
			name: "hot-memory-scales-up",
			script: script(
				fires(upStreak, kvsig(2, 0.9, 10), autoscale.ScaleUp),
				repeat(cooldown, tick{kvsig(2, 0.9, 10), autoscale.Hold}),
				fires(upStreak, kvsig(2, 0.9, 10), autoscale.ScaleUp),
			),
		},
		{
			// Utilization bouncing across the high-water mark never fires.
			name: "oscillating-utilization-never-fires",
			script: []tick{
				{kvsig(2, 0.9, 10), autoscale.Hold},
				{kvsig(2, 0.5, 10), autoscale.Hold},
				{kvsig(2, 0.9, 10), autoscale.Hold},
				{kvsig(2, 0.5, 10), autoscale.Hold},
			},
		},
		{
			// Low memory with a deep queue is short contexts, not idle
			// capacity: no scale-down.
			name:   "low-util-deep-queue-holds",
			script: repeat(2*downStreak, tick{kvsig(2, 0.1, 50), autoscale.Hold}),
		},
		{
			name:   "cold-idle-pool-scales-down",
			script: fires(downStreak, kvsig(2, 0.1, 1), autoscale.ScaleDown),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runScript(t, autoscale.NewKVUtilization(), tc.script)
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range autoscale.Names() {
		p, err := autoscale.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := autoscale.ByName("nope"); err == nil {
		t.Error("unknown policy should fail")
	}
}

// TestNew: the tuned constructor hands each policy its own tuning (zero
// selects the default) and ignores the other's.
func TestNew(t *testing.T) {
	cases := []struct {
		name string
		slo  time.Duration
		rate float64
		want autoscale.Policy
	}{
		{autoscale.NameQueuePressure, time.Second, 2, autoscale.NewQueuePressure()},
		{autoscale.NameKVUtilization, time.Second, 2, autoscale.NewKVUtilization()},
		{autoscale.NameSLOTarget, 3 * time.Second, 2, autoscale.NewSLOTarget(3 * time.Second)},
		{autoscale.NameSLOTarget, 0, 0, autoscale.NewSLOTarget(0)},
		{autoscale.NamePredictive, time.Second, 2.5, autoscale.NewPredictive(2.5)},
		{autoscale.NamePredictive, 0, 0, autoscale.NewPredictive(0)},
	}
	for _, c := range cases {
		got, err := autoscale.New(c.name, c.slo, c.rate)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("New(%q, %v, %v) = %+v, want %+v", c.name, c.slo, c.rate, got, c.want)
		}
	}
	if _, err := autoscale.New("nope", 0, 0); err == nil {
		t.Error("unknown policy should fail")
	}
}
