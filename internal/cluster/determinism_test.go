package cluster_test

// Determinism regression: same seed + same spec must produce a deeply
// identical Result across two runs, for a grid of specs covering
// autoscale × topology × migration-policy. reflect.DeepEqual descends
// every field — reports, per-request token totals (weighted effective
// tokens, first and last token instants), fabric ledgers, scale events —
// so any map-iteration or clock-ordering nondeterminism
// anywhere in the stack shows up as a diff. CI additionally runs this
// test under -race, which catches ordering bugs the single run hides.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/trace"
)

// determinismGrid spans the policy generations, topologies, and migration
// policies; each row is a fresh-config factory because policies and
// clusters are stateful one-run objects.
func determinismGrid() []struct {
	name string
	make func() (cluster.Config, cluster.BuildEngine)
} {
	return determinismGridOf(tokenFlow)
}

// determinismGridOf is determinismGrid with every replica running the
// given system.
func determinismGridOf(system func() (sched.Scheduler, engine.KVPolicy, error)) []struct {
	name string
	make func() (cluster.Config, cluster.BuildEngine)
} {
	topoFor := func(kind fabric.Kind, link, sw float64) *fabric.Spec {
		return &fabric.Spec{Kind: kind, LinkGBps: link, SwitchGBps: sw}
	}
	return []struct {
		name string
		make func() (cluster.Config, cluster.BuildEngine)
	}{
		{"static-mesh-always", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
			}, cluster.Engines(rtx4090, system)
		}},
		{"static-shared-nic-cost", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				MigrationPolicy: cluster.MigrateCost,
				Topology:        topoFor(fabric.SharedNIC, 1, 2),
			}, cluster.Engines(hetero, system)
		}},
		{"queue-pressure-prewarm-mesh", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				Autoscale: &cluster.AutoscaleConfig{
					Policy:  autoscale.NewQueuePressure(),
					Max:     3,
					Warmup:  2 * time.Second,
					Prewarm: true,
				},
			}, cluster.Engines(rtx4090, system)
		}},
		{"slo-target-zero-shared-nic", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewLeastQueue(),
				Topology: topoFor(fabric.SharedNIC, 2, 0),
				Autoscale: &cluster.AutoscaleConfig{
					Policy:      autoscale.NewSLOTarget(0),
					Max:         3,
					Warmup:      2 * time.Second,
					ScaleToZero: true,
				},
			}, cluster.Engines(rtx4090, system)
		}},
		{"predictive-zero-cost-mesh", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				MigrationPolicy: cluster.MigrateCost,
				Autoscale: &cluster.AutoscaleConfig{
					Policy:      autoscale.NewPredictive(0),
					Max:         3,
					Warmup:      3 * time.Second,
					Prewarm:     true,
					ScaleToZero: true,
				},
			}, cluster.Engines(rtx4090, system)
		}},
	}
}

// TestDeterminismGrid runs every grid row twice and requires byte-level
// equality of the full Result.
func TestDeterminismGrid(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func() *cluster.Result {
				cfg, build := row.make()
				cl, err := cluster.New(cfg, build)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				// Narrow the diff for the report before failing.
				switch {
				case !reflect.DeepEqual(a.Report, b.Report):
					t.Fatalf("reports differ:\n%+v\n%+v", a.Report, b.Report)
				case !reflect.DeepEqual(a.ScaleEvents, b.ScaleEvents):
					t.Fatalf("scale events differ:\n%+v\n%+v", a.ScaleEvents, b.ScaleEvents)
				case !reflect.DeepEqual(a.TransferClasses, b.TransferClasses):
					t.Fatalf("transfer ledgers differ:\n%+v\n%+v", a.TransferClasses, b.TransferClasses)
				default:
					t.Fatal("cluster results differ between identical runs")
				}
			}
		})
	}
}

// TestObsPurityGrid proves the flight recorder is pure observation across
// the same autoscale × topology × migration grid: a fully instrumented run
// (events + series + profiling + attribution) must yield a Result
// deep-equal to the uninstrumented run once the capture and attribution
// report are set aside, and the recorded event log and series must export
// byte-identically across repeated runs (the same-instant tie-break of
// the event ordering). CI also runs this under -race.
func TestObsPurityGrid(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func(o obs.Options) *cluster.Result {
				cfg, build := row.make()
				// Sampling on for both runs so the series layer records;
				// identical across runs, so it cannot mask an obs effect.
				cfg.SampleEvery = 250 * time.Millisecond
				cfg.Obs = o
				cl, err := cluster.New(cfg, build)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			full := obs.Options{Events: true, Series: true, Profile: true, Attribution: true}
			off, on, on2 := run(obs.Options{}), run(full), run(full)
			if off.Obs != nil {
				t.Fatal("obs-off run produced a capture")
			}
			if off.Attribution != nil {
				t.Fatal("obs-off run produced an attribution report")
			}
			if on.Obs == nil || on.Obs.Events.Len() == 0 {
				t.Fatal("instrumented run recorded no events")
			}
			if len(on.Obs.Series.All()) == 0 {
				t.Fatal("instrumented run recorded no series")
			}
			if on.Attribution == nil || on.Attribution.Requests == 0 {
				t.Fatal("instrumented run produced no attribution report")
			}
			var j1, j2 bytes.Buffer
			if err := on.Obs.Events.WriteJSONL(&j1); err != nil {
				t.Fatal(err)
			}
			if err := on2.Obs.Events.WriteJSONL(&j2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Fatal("event JSONL is not byte-stable across identical runs")
			}
			var c1, c2 bytes.Buffer
			if err := on.Obs.Series.WriteCSV(&c1); err != nil {
				t.Fatal(err)
			}
			if err := on2.Obs.Series.WriteCSV(&c2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
				t.Fatal("series CSV is not byte-stable across identical runs")
			}
			if !reflect.DeepEqual(on.Attribution, on2.Attribution) {
				t.Fatal("attribution reports differ across identical runs")
			}
			on.Obs, on2.Obs = nil, nil
			on.Attribution, on2.Attribution = nil, nil
			if !reflect.DeepEqual(off, on) {
				t.Fatal("instrumented run diverged from uninstrumented run")
			}
			if !reflect.DeepEqual(on, on2) {
				t.Fatal("repeated instrumented runs diverged")
			}
		})
	}
}

// TestDeterminismRandomScenario re-runs one random scenario from an
// identically seeded generator: generator and simulator must both be
// deterministic for resume-from-seed debugging to work.
func TestDeterminismRandomScenario(t *testing.T) {
	run := func() (*cluster.Result, trace.Workload) {
		sc := cluster.RandomScenario(rand.New(rand.NewSource(42)))
		cl, err := cluster.New(sc.Config, sc.Build)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(sc.Workload)
		if err != nil {
			t.Fatal(err)
		}
		return res, sc.Workload
	}
	a, wa := run()
	b, wb := run()
	if !reflect.DeepEqual(wa, wb) {
		t.Fatal("random scenario generator is not deterministic per seed")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("random scenario runs differ between identical seeds")
	}
}
