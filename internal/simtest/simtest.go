// Package simtest holds the fixtures the cluster and engine test suites
// share: the test pools and systems, the determinism grid, the loud
// scheduler wrapper (the reference for skipped scheduling decisions), and
// whole-run captures compared field by field and export by export. Only
// tests import it.
package simtest

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/trace"
)

// System builds one replica's scheduler and KV policy.
type System = func() (sched.Scheduler, engine.KVPolicy, error)

// The test pools: every replica an RTX-4090 / Llama3-8B at mem-frac 0.9
// (RTX4090), or one H200 at replica 0 ahead of two such replicas (Hetero,
// one deployment per replica of the 3-replica mixed pools).
var (
	RTX4090 = []cluster.Deployment{{GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.9}}
	Hetero  = []cluster.Deployment{{GPU: gpu.H200, Model: model.Llama3_8B, MemFraction: 0.9}, RTX4090[0], RTX4090[0]}
)

// NamedSystem is the named system from the engine's system table at the
// paper-default TokenFlow tuning, with the host-tier prefix cache on when
// hostCache is set.
func NamedSystem(name string, hostCache bool) System {
	return func() (sched.Scheduler, engine.KVPolicy, error) {
		s, kv, err := engine.NewSystem(name, core.DefaultConfig())
		kv.HostCache = hostCache
		return s, kv, err
	}
}

// loud wraps a scheduler and drops its quiet horizon
// (sched.Decision.QuietUntil), so the engine consults it at every
// iteration boundary: the reference the engine's skipped decisions are
// held to.
type loud struct{ sched.Scheduler }

func (l loud) Decide(v *sched.View) sched.Decision {
	d := l.Scheduler.Decide(v)
	d.QuietUntil = 0
	return d
}

// loudWaker is loud over a quantum-gated scheduler: the engine selects
// its idle wakeup by type assertion, so the wrapper keeps sched.Waker.
type loudWaker struct {
	loud
	sched.Waker
}

// Loudly is system with its scheduler wrapped to promise no quiet
// horizon.
func Loudly(system System) System {
	return func() (sched.Scheduler, engine.KVPolicy, error) {
		s, kv, err := system()
		if err != nil {
			return nil, kv, err
		}
		if w, ok := s.(sched.Waker); ok {
			return loudWaker{loud{s}, w}, kv, nil
		}
		return loud{s}, kv, nil
	}
}

// GridRow is one determinism-grid configuration; Make returns a fresh
// one, because policies and clusters are stateful one-run objects.
type GridRow struct {
	Name string
	Make func() (cluster.Config, cluster.BuildEngine)
}

// Grid is the determinism grid with every replica running system: it
// spans the policy generations, topologies, and migration policies.
func Grid(system System) []GridRow {
	topoFor := func(kind fabric.Kind, link, sw float64) *fabric.Spec {
		return &fabric.Spec{Kind: kind, LinkGBps: link, SwitchGBps: sw}
	}
	return []GridRow{
		{"static-mesh-always", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
			}, cluster.Engines(RTX4090, system)
		}},
		{"static-shared-nic-cost", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				MigrationPolicy: cluster.MigrateCost,
				Topology:        topoFor(fabric.SharedNIC, 1, 2),
			}, cluster.Engines(Hetero, system)
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
			}, cluster.Engines(RTX4090, system)
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
			}, cluster.Engines(RTX4090, system)
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
			}, cluster.Engines(RTX4090, system)
		}},
	}
}

// Capture is one cluster run with every obs layer on. The exports are
// taken out of the Result, so the rest compares with reflect.DeepEqual.
type Capture struct {
	Res                    *cluster.Result
	Events, Chrome, Series []byte
	Attribution            any
}

// Run runs w on a cluster built from cfg and build with every obs layer on
// and a 250 ms sampling loop, applying prep, when set, to the built
// cluster before it runs.
func Run(t testing.TB, cfg cluster.Config, build cluster.BuildEngine, w trace.Workload, prep func(*cluster.Cluster)) Capture {
	t.Helper()
	cfg.SampleEvery = 250 * time.Millisecond
	cfg.Obs = obs.Options{Events: true, Series: true, Profile: true, Attribution: true}
	cl, err := cluster.New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(cl)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	var ev, ch, se bytes.Buffer
	if err := res.Obs.Events.WriteJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.Events.WriteChromeTrace(&ch); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.Series.WriteCSV(&se); err != nil {
		t.Fatal(err)
	}
	c := Capture{Res: res, Events: ev.Bytes(), Chrome: ch.Bytes(), Series: se.Bytes(), Attribution: res.Attribution}
	// The profile holds wall-clock times; the rest of the capture is
	// compared through its exports.
	res.Obs, res.Attribution = nil, nil
	return c
}

// SameRuns requires got to be ref: deep-equal Results, byte-identical
// event JSONL, Chrome trace and series CSV, and equal attribution.
func SameRuns(t testing.TB, got, ref Capture) {
	t.Helper()
	sameRuns(t, got, ref, false)
}

// SameOutputs is SameRuns with the clock's event count excepted: the one
// field a run may change without changing what it simulates (a fused
// decode run fires one clock event where the unfused loop fires several).
func SameOutputs(t testing.TB, got, ref Capture) {
	t.Helper()
	sameRuns(t, got, ref, true)
}

func sameRuns(t testing.TB, got, ref Capture, anyEventCount bool) {
	t.Helper()
	if len(got.Events) == 0 {
		t.Fatal("the run recorded no events")
	}
	if !bytes.Equal(got.Events, ref.Events) {
		t.Error("event JSONL differs from the reference run's")
	}
	if !bytes.Equal(got.Chrome, ref.Chrome) {
		t.Error("Chrome trace differs from the reference run's")
	}
	if !bytes.Equal(got.Series, ref.Series) {
		t.Error("series CSV differs from the reference run's")
	}
	if !reflect.DeepEqual(got.Attribution, ref.Attribution) {
		t.Error("attribution report differs from the reference run's")
	}
	if !reflect.DeepEqual(got.Res.Report, ref.Res.Report) {
		t.Fatalf("reports differ:\n%+v\n%+v", got.Res.Report, ref.Res.Report)
	}
	g, r := *got.Res, *ref.Res
	if anyEventCount {
		g.EventsProcessed, r.EventsProcessed = 0, 0
	}
	if !reflect.DeepEqual(g, r) {
		t.Fatal("results differ from the reference run's")
	}
}
