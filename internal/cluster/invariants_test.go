package cluster_test

// The cross-subsystem invariant suite: after any run — every
// experiment-shaped spec plus a seeded random sweep — the conservation
// laws of CheckInvariants must hold: fabric bytes match kvcache bytes per
// class, pins never outgrow pools, GPU-seconds equal the replica-count
// integral, and every admitted request appears exactly once.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/router"
	"repro/internal/simclock"
)

// experimentSpecs mirrors the shapes the experiment suite runs — static
// scaling, heterogeneous migration, autoscaling with pre-warm, shared-NIC
// fabric, cost-model migration, scale-to-zero with every policy
// generation — as (name, Config, BuildEngine) rows over the shared
// session workload.
func experimentSpecs() []struct {
	name  string
	cfg   cluster.Config
	build cluster.BuildEngine
} {
	asCfg := func(pol autoscale.Policy, scaleToZero, prewarm bool) *cluster.AutoscaleConfig {
		return &cluster.AutoscaleConfig{
			Policy:      pol,
			Max:         3,
			Warmup:      2 * time.Second,
			Prewarm:     prewarm,
			ScaleToZero: scaleToZero,
		}
	}
	return []struct {
		name  string
		cfg   cluster.Config
		build cluster.BuildEngine
	}{
		{"static-4x-affinity", cluster.Config{
			Replicas: 4, Policy: router.NewSessionAffinity(),
		}, cluster.Engines(rtx4090, tokenFlow)},
		{"hetero-migrate", cluster.Config{
			Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
		}, cluster.Engines(hetero, tokenFlow)},
		{"hetero-migrate-cost-shared-nic", cluster.Config{
			Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
			MigrationPolicy: cluster.MigrateCost,
			Topology:        &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 1},
		}, cluster.Engines(hetero, tokenFlow)},
		{"autoscale-queue-pressure-prewarm", cluster.Config{
			Replicas: 3, Policy: router.NewSessionAffinity(),
			Autoscale: asCfg(autoscale.NewQueuePressure(), false, true),
		}, cluster.Engines(rtx4090, tokenFlow)},
		{"autoscale-kv-utilization", cluster.Config{
			Replicas: 3, Policy: router.NewLeastQueue(),
			Autoscale: asCfg(autoscale.NewKVUtilization(), false, false),
		}, cluster.Engines(rtx4090, tokenFlow)},
		{"autoscale-slo-target-scale-to-zero", cluster.Config{
			Replicas: 3, Policy: router.NewSessionAffinity(),
			Autoscale: asCfg(autoscale.NewSLOTarget(0), true, true),
		}, cluster.Engines(rtx4090, tokenFlow)},
		{"autoscale-predictive-scale-to-zero", cluster.Config{
			Replicas: 3, Policy: router.NewLeastQueue(),
			Autoscale: asCfg(autoscale.NewPredictive(0), true, false),
		}, cluster.Engines(rtx4090, tokenFlow)},
		{"migrate-shared-nic-switch", cluster.Config{
			Replicas: 4, Policy: router.NewSessionAffinity(), Migrate: true,
			Topology: &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 2, SwitchGBps: 4},
		}, cluster.Engines(rtx4090, tokenFlow)},
	}
}

// TestInvariantsOnExperimentSpecs runs the conservation laws over every
// experiment-shaped spec.
func TestInvariantsOnExperimentSpecs(t *testing.T) {
	w := sessionWorkload(t)
	for _, spec := range experimentSpecs() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			// Events on: the suite also checks law 5 (event reconciliation)
			// and law 6 (exact latency attribution); Attribution on so the
			// streaming report is cross-checked against the derived spans.
			spec.cfg.Obs = obs.Options{Events: true, Attribution: true}
			cl, err := cluster.New(spec.cfg, spec.build)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut {
				t.Fatal("run timed out")
			}
			if err := cluster.CheckInvariants(res, w.Len()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestInvariantsOnRandomSpecs sweeps seeded random scenarios through the
// same laws — the testing/quick-style net under the whole configuration
// space. A failure reproduces from the printed seed alone.
func TestInvariantsOnRandomSpecs(t *testing.T) {
	const scenarios = 24
	for seed := int64(0); seed < scenarios; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			sc := cluster.RandomScenario(rand.New(rand.NewSource(seed)))
			sc.Config.Obs = obs.Options{Events: true, Attribution: true}
			cl, err := cluster.New(sc.Config, sc.Build)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := cl.Run(sc.Workload)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.TimedOut {
				t.Fatalf("seed %d: run timed out", seed)
			}
			if err := cluster.CheckInvariants(res, sc.Workload.Len()); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestInvariantCatchesViolation sanity-checks the checker itself: a
// corrupted result must fail, or the whole suite is vacuous.
func TestInvariantCatchesViolation(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 2, router.NewSessionAffinity(), w)
	if err := cluster.CheckInvariants(res, w.Len()); err != nil {
		t.Fatalf("clean run violates invariants: %v", err)
	}
	res.GPUSeconds += 1
	if err := cluster.CheckInvariants(res, w.Len()); err == nil {
		t.Error("corrupted GPU-seconds passed the invariant check")
	}
	res.GPUSeconds -= 1
	res.Requests = res.Requests[1:]
	if err := cluster.CheckInvariants(res, w.Len()); err == nil {
		t.Error("dropped request passed the invariant check")
	}

	// The attribution law must also bite: a recorded run whose streaming
	// report disagrees with the derived spans fails law 6.
	cfg := cluster.Config{
		Replicas: 2, Policy: router.NewSessionAffinity(),
		Obs: obs.Options{Events: true, Attribution: true},
	}
	cl, err := cluster.New(cfg, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	ores, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckInvariants(ores, w.Len()); err != nil {
		t.Fatalf("clean recorded run violates invariants: %v", err)
	}
	ores.Attribution.Requests++
	if err := cluster.CheckInvariants(ores, w.Len()); err == nil {
		t.Error("corrupted attribution request count passed the invariant check")
	}
}

// TestTokenBookkeepingLawBites: each way a request's running token totals
// can disagree fails the bookkeeping law, and the error names the request.
func TestTokenBookkeepingLawBites(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 2, router.NewSessionAffinity(), w)
	if err := cluster.CheckInvariants(res, w.Len()); err != nil {
		t.Fatalf("clean run violates invariants: %v", err)
	}
	r := res.Requests[len(res.Requests)/2]
	if !r.GenerationDone() || r.Generated < 2 {
		t.Fatalf("request %d is not a finished multi-token request", r.ID)
	}
	end := simclock.Time(res.SimEnd)
	cases := []struct {
		name    string
		corrupt func(r *request.Request)
	}{
		{"negative-effective", func(r *request.Request) { r.Effective = -0.5 }},
		{"effective-above-generated", func(r *request.Request) { r.Effective = float64(r.Generated) + 1 }},
		{"last-before-first", func(r *request.Request) { r.LastTokenAt = r.FirstTokenAt - 1 }},
		{"last-after-run-end", func(r *request.Request) { r.LastTokenAt, r.FinishedAt = end+1, end+1 }},
		{"last-token-not-finish", func(r *request.Request) { r.FinishedAt = r.LastTokenAt - 1 }},
		{"nothing-generated-but-effective", func(r *request.Request) { r.Generated, r.LastTokenAt, r.Effective = 0, 0, 1 }},
		{"nothing-generated-but-last-token", func(r *request.Request) { r.Generated, r.Effective = 0, 0 }},
	}
	for _, c := range cases {
		saved := *r
		c.corrupt(r)
		err := cluster.CheckInvariants(res, w.Len())
		*r = saved
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d ", r.ID)) {
			t.Errorf("%s: invariant error %v, want one naming request %d", c.name, err, r.ID)
		}
	}
	if err := cluster.CheckInvariants(res, w.Len()); err != nil {
		t.Fatalf("restored run violates invariants: %v", err)
	}
}
