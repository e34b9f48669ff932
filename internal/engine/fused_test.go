package engine_test

// Fused decode runs against the unfused loop: whole cluster runs with
// every obs layer on must simulate exactly the same thing whether quiet
// decode iterations fire one clock event each or one per run.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/simtest"
	"repro/internal/trace"
)

// unfused wraps build so every engine it makes fires one clock event per
// iteration (engine.SetUnfused): the reference fused runs are held to.
func unfused(build cluster.BuildEngine) cluster.BuildEngine {
	return func(i int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		e, err := build(i, clock, ep)
		if err == nil {
			engine.SetUnfused(e)
		}
		return e, err
	}
}

func fusedOf(build cluster.BuildEngine) cluster.BuildEngine { return build }

// sameFusedRun runs cfg on both sides and requires the same outputs:
// deep-equal Results but for the clock's event count, which fusing may
// only lower, and byte-identical exports and attribution. It reports how
// many clock events fusing saved.
func sameFusedRun(t testing.TB, mk func() (cluster.Config, cluster.BuildEngine, trace.Workload)) uint64 {
	t.Helper()
	run := func(wrap func(cluster.BuildEngine) cluster.BuildEngine) simtest.Capture {
		cfg, build, w := mk()
		return simtest.Run(t, cfg, wrap(build), w)
	}
	fused, ref := run(fusedOf), run(unfused)
	simtest.SameOutputs(t, fused, ref)
	if f, u := fused.Res.EventsProcessed, ref.Res.EventsProcessed; f > u {
		t.Fatalf("the fused run fired %d clock events, the unfused %d", f, u)
	}
	return ref.Res.EventsProcessed - fused.Res.EventsProcessed
}

// fusedScenario is RandomScenario(seed) on the given system and shard
// count, with the router forced to least-kv or indexed session affinity
// on some seeds and, on others, a crash and a brownout added to the
// fault plan, so every draw family meets fused runs.
func fusedScenario(seed int64, system simtest.System, shards int, routing, faults byte) (cluster.Config, cluster.BuildEngine, trace.Workload) {
	sc := cluster.RandomScenario(rand.New(rand.NewSource(seed)))
	cfg := sc.Config
	cfg.Shards = shards
	switch routing % 4 {
	case 1:
		cfg.Policy, _ = router.ByName(router.NameLeastKV)
	case 2:
		cfg.Policy, _ = router.ByName(router.NameIndexedSessionAffinity)
	}
	if faults%2 == 1 {
		plan := chaos.Spec{Seed: seed, Horizon: simclock.FromSeconds(20)}
		if cfg.Chaos != nil {
			plan = *cfg.Chaos
		}
		plan.Faults = append(plan.Faults, chaos.Fault{
			Kind: chaos.Brownout, At: simclock.FromSeconds(2 + float64(faults%7)),
			Replica: 0, Duration: 5 * time.Second, Factor: 2.5,
		})
		if cfg.Replicas > 1 {
			plan.Faults = append(plan.Faults, chaos.Fault{
				Kind: chaos.Crash, At: simclock.FromSeconds(4 + float64(faults%5)), Replica: cfg.Replicas - 1,
			})
		}
		cfg.Chaos = &plan
	}
	return cfg, cluster.Engines(simtest.RTX4090, system), sc.Workload
}

// TestFusedRunExact holds fused decode runs to the unfused loop over
// every determinism-grid row at one and two shards and over random
// scenarios on all four systems — host cache, migration, autoscaling,
// crashes and brownouts, least-kv and indexed routing — with every obs
// layer on: deep-equal Results (the clock's event count excepted),
// byte-identical event JSONL, Chrome trace and series CSV, and equal
// attribution.
func TestFusedRunExact(t *testing.T) {
	var saved uint64
	w := trace.Sessions("test-sessions", trace.SessionConfig{
		Sessions: 24,
		Duration: simclock.FromSeconds(60),
		Rates:    trace.FixedRate(20),
		Seed:     7,
	})
	for _, row := range simtest.Grid(simtest.NamedSystem(engine.SystemTokenFlow, false)) {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards-%d", row.Name, shards), func(t *testing.T) {
				saved += sameFusedRun(t, func() (cluster.Config, cluster.BuildEngine, trace.Workload) {
					cfg, build := row.Make()
					cfg.Shards = shards
					return cfg, build, w
				})
			})
		}
	}

	systems := engine.Systems()
	for seed := int64(0); seed < 24; seed++ {
		name := systems[seed%int64(len(systems))]
		shards := 1 + int(seed/4)%2
		hostCache := seed%3 == 0
		routing, faults := byte(seed%5), byte(seed/2)
		t.Run(fmt.Sprintf("random-%d/%s/shards-%d", seed, name, shards), func(t *testing.T) {
			saved += sameFusedRun(t, func() (cluster.Config, cluster.BuildEngine, trace.Workload) {
				return fusedScenario(seed, simtest.NamedSystem(name, hostCache), shards, routing, faults)
			})
		})
	}
	if saved == 0 {
		t.Error("no run fused a decode iteration")
	}
}

// FuzzQuietRun decodes a small random scenario — RandomScenario's seed,
// the system, the host cache, one or two shards, the routing override and
// the added faults — and holds its fused run to the unfused one, as
// TestFusedRunExact does.
func FuzzQuietRun(f *testing.F) {
	f.Add(int64(1), byte(3), byte(0), byte(0), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, system, host, routing, faults byte) {
		systems := engine.Systems()
		name := systems[int(system)%len(systems)]
		shards := 1 + int(host>>1)%2
		sameFusedRun(t, func() (cluster.Config, cluster.BuildEngine, trace.Workload) {
			return fusedScenario(seed, simtest.NamedSystem(name, host%2 == 1), shards, routing, faults)
		})
	})
}
