package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// scriptPolicy replays a fixed decision per control tick (autoscaler test
// harness); unscripted ticks hold.
type scriptPolicy struct {
	decisions map[int]autoscale.Decision
	tick      int
}

func (p *scriptPolicy) Name() string { return "script" }
func (p *scriptPolicy) Decide(autoscale.Signals) autoscale.Decision {
	d := p.decisions[p.tick]
	p.tick++
	return d
}

// TestAutoscaleStaticEquality: a min=max autoscaled cluster must reproduce
// the static cluster of the same size exactly — the control loop runs but
// can never act, and its presence must not perturb the simulation.
func TestAutoscaleStaticEquality(t *testing.T) {
	w := sessionWorkload(t)
	static := runPolicy(t, 2, router.NewSessionAffinity(), w)

	cl, err := cluster.New(cluster.Config{
		Replicas: 2,
		Policy:   router.NewSessionAffinity(),
		Autoscale: &cluster.AutoscaleConfig{
			Policy: autoscale.NewQueuePressure(),
			Min:    2, Max: 2,
		},
	}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(static.Report, scaled.Report) {
		t.Errorf("min=max autoscaled report differs from static:\nstatic: %+v\nscaled: %+v",
			static.Report, scaled.Report)
	}
	if static.Makespan != scaled.Makespan || static.PrefixHits != scaled.PrefixHits {
		t.Errorf("makespan/hits differ: %v/%d vs %v/%d",
			static.Makespan, static.PrefixHits, scaled.Makespan, scaled.PrefixHits)
	}
	if static.Imbalance != scaled.Imbalance {
		t.Errorf("imbalance differs: %v vs %v", static.Imbalance, scaled.Imbalance)
	}
	if len(scaled.ScaleEvents) != 0 {
		t.Errorf("min=max cluster logged scale events: %+v", scaled.ScaleEvents)
	}
	if scaled.GPUSeconds <= 0 {
		t.Error("autoscaled run reported no GPU-seconds")
	}
}

// TestWarmupGatesTraffic: a scripted scale-up must keep the new replica
// invisible to routing until the warm-up latency elapses.
func TestWarmupGatesTraffic(t *testing.T) {
	w := trace.Poisson("steady", 3, simclock.FromSeconds(40), trace.NormalLengths{
		PromptMean: 256, PromptStd: 32, OutputMean: 64, OutputStd: 8,
		Min: 16, Max: 2048,
	}, trace.FixedRate(0), 11)

	warmup := 10 * time.Second
	cl, err := cluster.New(cluster.Config{
		Policy: router.NewLeastQueue(),
		Autoscale: &cluster.AutoscaleConfig{
			Policy: &scriptPolicy{decisions: map[int]autoscale.Decision{2: autoscale.ScaleUp}},
			Min:    1, Max: 2, Warmup: warmup,
		},
	}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	var warmAt, activeAt simclock.Time = -1, -1
	for _, ev := range res.ScaleEvents {
		switch ev.Kind {
		case cluster.ScaleWarmup:
			warmAt = ev.At
		case cluster.ScaleActivate:
			activeAt = ev.At
		}
	}
	if warmAt < 0 || activeAt < 0 {
		t.Fatalf("missing warm-up/activate events: %+v", res.ScaleEvents)
	}
	if got := activeAt.Sub(warmAt); got != warmup {
		t.Errorf("warm-up took %v, want %v", got, warmup)
	}
	rep1 := res.PerReplica[1]
	if rep1.Routed == 0 {
		t.Fatal("scaled-up replica received no traffic after activation")
	}
	for _, r := range rep1.Result.Requests {
		if r.Arrival < activeAt {
			t.Errorf("request %d arrived at %v, before replica 1 activated at %v",
				r.ID, r.Arrival, activeAt)
		}
	}
	if res.WarmupStalls == 0 {
		t.Error("arrivals during the 10s warm-up should count as warm-up stalls")
	}
	if res.GPUSeconds >= 2*res.Makespan.Seconds() {
		t.Errorf("GPU-seconds %.1f should be under 2 replicas × makespan %.1fs",
			res.GPUSeconds, res.Makespan.Seconds())
	}
}

// TestDrainSemantics: after a scripted scale-down, no request is ever
// routed to the draining replica, its pinned prefixes migrate to the
// survivor, and the replica eventually turns off.
func TestDrainSemantics(t *testing.T) {
	// Multi-turn sessions so the drained replica holds pins when it drains.
	// The run starts at Min = 1; an instant scripted scale-up at the first
	// control tick brings the second replica in before traffic builds.
	w := sessionWorkload(t)
	cl, err := cluster.New(cluster.Config{
		Policy: router.NewLeastQueue(),
		Autoscale: &cluster.AutoscaleConfig{
			Policy: &scriptPolicy{decisions: map[int]autoscale.Decision{
				0: autoscale.ScaleUp, 20: autoscale.ScaleDown}},
			Min: 1, Max: 2, Warmup: -1,
		},
	}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Finished != w.Len() {
		t.Fatalf("finished %d/%d", res.Report.Finished, w.Len())
	}

	var drainAt, offAt simclock.Time = -1, -1
	drained := -1
	for _, ev := range res.ScaleEvents {
		switch ev.Kind {
		case cluster.ScaleDrain:
			drainAt, drained = ev.At, ev.Replica
		case cluster.ScaleOff:
			offAt = ev.At
		}
	}
	if drained < 0 {
		t.Fatalf("no drain event: %+v", res.ScaleEvents)
	}
	// The drain guarantee: every request on the drained replica arrived
	// before the drain began.
	for _, r := range res.PerReplica[drained].Result.Requests {
		if r.Arrival > drainAt {
			t.Errorf("request %d arrived at %v, after replica %d began draining at %v",
				r.ID, r.Arrival, drained, drainAt)
		}
	}
	// Pins hand off cleanly: the drained replica ends with nothing pinned,
	// and the hand-off is accounted as migrations or drops.
	if got := res.PerReplica[drained].Result.KV.PinnedPages; got != 0 {
		t.Errorf("drained replica still pins %d pages", got)
	}
	if res.DrainMigrations == 0 && res.DrainDroppedPins == 0 {
		t.Error("drain moved no pins: expected migrations or drops on a session workload")
	}
	if res.DrainMigrations > 0 {
		survivor := 1 - drained
		if res.PerReplica[survivor].Result.KV.MigratedInTokens == 0 {
			t.Error("survivor installed no migrated-in prefix tokens")
		}
	}
	if offAt < 0 {
		t.Errorf("drained replica never turned off: %+v", res.ScaleEvents)
	} else if res.PerReplica[drained].State != autoscale.Off {
		t.Errorf("drained replica final state %v, want off", res.PerReplica[drained].State)
	}
	if offAt >= 0 && offAt < drainAt {
		t.Errorf("off at %v before drain at %v", offAt, drainAt)
	}
}

// TestPrewarmSeedsWarmingReplica: a scripted scale-up with pre-warming
// ships the hottest pins onto the new replica while it warms.
func TestPrewarmSeedsWarmingReplica(t *testing.T) {
	w := sessionWorkload(t)
	run := func(prewarm bool) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Policy: router.NewSessionAffinity(),
			Autoscale: &cluster.AutoscaleConfig{
				Policy: &scriptPolicy{decisions: map[int]autoscale.Decision{25: autoscale.ScaleUp}},
				Min:    1, Max: 2,
				Warmup:  5 * time.Second,
				Prewarm: prewarm,
			},
		}, cluster.Engines(rtx4090, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	warm := run(true)
	cold := run(false)

	if warm.Prewarms == 0 || warm.PrewarmedTokens == 0 {
		t.Fatalf("prewarm shipped nothing: %d migrations, %d tokens",
			warm.Prewarms, warm.PrewarmedTokens)
	}
	if cold.Prewarms != 0 {
		t.Errorf("cold run pre-warmed %d pins", cold.Prewarms)
	}
	if warm.PerReplica[1].Result.KV.MigratedInTokens == 0 {
		t.Error("warming replica installed no pre-warmed tokens")
	}
	// The pre-warmed replica should convert its seeded pins into prefix
	// hits the cold replica has to recompute.
	if wh, ch := warm.PerReplica[1].Result.PrefixHits, cold.PerReplica[1].Result.PrefixHits; wh <= ch {
		t.Errorf("pre-warmed replica hits %d <= cold replica hits %d", wh, ch)
	}
}
