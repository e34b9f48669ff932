package cluster

// Seeded random cluster scenarios for the invariant suite and the CI
// bench smoke pass: a testing/quick-style generator that draws a valid
// (Config, BuildEngine, Workload) triple covering the autoscale ×
// topology × migration-policy × gateway space. Deterministic per rng
// state, so a failing scenario reproduces from its seed alone.

import (
	"math/rand"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Scenario is one randomized cluster run specification.
type Scenario struct {
	Config   Config
	Build    BuildEngine
	Workload trace.Workload
}

// RandomScenario draws a random valid scenario from rng. Sizes are kept
// small (≤3 replicas, ≤20 sessions) so a sweep of scenarios stays cheap
// enough for CI.
func RandomScenario(rng *rand.Rand) Scenario {
	replicas := 1 + rng.Intn(3)

	routers := router.Names()
	pol, err := router.ByName(routers[rng.Intn(len(routers))])
	if err != nil {
		panic(err) // names come from the router package itself
	}

	cfg := Config{
		Replicas: replicas,
		Policy:   pol,
		Migrate:  rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		cfg.MigrationPolicy = MigrateCost
	}
	switch rng.Intn(3) {
	case 0:
		// default full mesh
	case 1:
		cfg.Topology = &fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 0.5 + 25*rng.Float64()}
	case 2:
		spec := &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 0.5 + 10*rng.Float64()}
		if rng.Intn(2) == 0 {
			spec.SwitchGBps = 1 + 10*rng.Float64()
		}
		cfg.Topology = spec
	}

	if rng.Intn(4) > 0 { // 3 in 4 scenarios autoscale
		var ap autoscale.Policy
		switch rng.Intn(4) {
		case 0:
			ap = autoscale.NewQueuePressure()
		case 1:
			ap = autoscale.NewKVUtilization()
		case 2:
			ap = autoscale.NewSLOTarget(time.Duration(1+rng.Intn(4)) * time.Second)
		case 3:
			ap = autoscale.NewPredictive(0)
		}
		// A zero draw means instant warm-up, which the config spells as
		// negative (zero itself would select the 8s default).
		warmSec := rng.Intn(6)
		if warmSec == 0 {
			warmSec = -1
		}
		as := &AutoscaleConfig{
			Policy: ap,
			Max:    replicas,
			Warmup: time.Duration(warmSec) * time.Second,
		}
		if rng.Intn(2) == 0 {
			as.Prewarm = true
		}
		if rng.Intn(2) == 0 {
			as.ScaleToZero = true
			switch rng.Intn(3) {
			case 0:
				as.GatewayDepth = -1 // zero capacity: everything sheds
			case 1:
				as.GatewayDepth = 1 + rng.Intn(8)
			}
		}
		cfg.Autoscale = as
	}

	hostCache := rng.Intn(2) == 0

	if replicas >= 2 && rng.Intn(2) == 0 {
		// Fault dimension: half the multi-replica scenarios inject a
		// seeded random fault plan (crashes, brownouts, link flaps), so
		// the invariant sweep and the determinism grid exercise the chaos
		// recovery paths across the whole configuration space.
		cfg.Chaos = &chaos.Spec{
			RandomFaults: 1 + rng.Intn(3),
			Seed:         rng.Int63(),
			Horizon:      simclock.FromSeconds(20),
		}
		if rng.Intn(2) == 0 {
			cfg.Chaos.Redundancy = 2
		}
	}

	build := Engines([]Deployment{{GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.9}},
		func() (sched.Scheduler, engine.KVPolicy, error) {
			s, kv, err := engine.NewSystem(engine.SystemTokenFlow, core.DefaultConfig())
			kv.HostCache = hostCache
			return s, kv, err
		})

	w := trace.Sessions("randspec", trace.SessionConfig{
		Sessions: 6 + rng.Intn(15),
		Duration: simclock.FromSeconds(20 + 40*rng.Float64()),
		Rates:    trace.FixedRate(20),
		Seed:     rng.Int63(),
	})
	return Scenario{Config: cfg, Build: build, Workload: w}
}
