package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/simtest"
	"repro/internal/trace"
)

// quietRun is one cluster run with every obs layer on (simtest.Capture).
type quietRun = simtest.Capture

func runWithObs(t *testing.T, cfg cluster.Config, build cluster.BuildEngine, w trace.Workload) quietRun {
	t.Helper()
	return simtest.Run(t, cfg, build, w)
}

// TestQuietHorizonExact holds the engine's skipped decisions to the
// reference that consults the scheduler at every iteration boundary (the
// loud wrapper, simtest.Loudly): over the determinism grid and random
// scenarios — chaos, autoscaling, the gateway, one and two shards, every
// system — with every obs layer and attribution on, both give deep-equal
// Results and byte-identical exports. The loud reference fuses no decode
// iterations (a fused run needs a quiet horizon), so the clock's event
// count is the one field excepted.
func TestQuietHorizonExact(t *testing.T) {
	w := sessionWorkload(t)
	quietGrid, loudGrid := determinismGrid(), simtest.Grid(simtest.Loudly(tokenFlow))
	for i, row := range quietGrid {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards-%d", row.Name, shards), func(t *testing.T) {
				run := func(mk func() (cluster.Config, cluster.BuildEngine)) quietRun {
					cfg, build := mk()
					cfg.Shards = shards
					return runWithObs(t, cfg, build, w)
				}
				simtest.SameOutputs(t, run(row.Make), run(loudGrid[i].Make))
			})
		}
	}

	systems := engine.Systems()
	for seed := int64(0); seed < 16; seed++ {
		name := systems[seed%int64(len(systems))]
		shards := 1 + int(seed/4)%2
		t.Run(fmt.Sprintf("random-%d/%s/shards-%d", seed, name, shards), func(t *testing.T) {
			run := func(system func() (sched.Scheduler, engine.KVPolicy, error)) quietRun {
				sc := cluster.RandomScenario(rand.New(rand.NewSource(seed)))
				sc.Config.Shards = shards
				return runWithObs(t, sc.Config, cluster.Engines(rtx4090, system), sc.Workload)
			}
			hostCache := seed%3 == 0
			simtest.SameOutputs(t, run(system(name, hostCache)), run(simtest.Loudly(system(name, hostCache))))
		})
	}
}
