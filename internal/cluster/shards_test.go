package cluster_test

// Shard-count equivalence: for every row of the determinism grid
// (autoscale × topology × migration), a run asking for several shards
// must produce a Result deeply identical to the one-shard run of the same
// seed and spec — reports, per-request token totals, fabric ledgers,
// scale events, event counts, everything. The grid's rows are routed, so
// they pin that any Shards value gives the same run; the round-robin fast
// path, the one configuration whose shards run on parallel goroutines, is
// held to the routed path. CI runs these under -race, so a shard touching
// state it does not own fails even when the merged result happens to
// match.

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/trace"
)

// TestShardedDeterminismGrid proves the shard count changes no output
// across the full grid: Shards ∈ {2, 3, 8} against the one-shard baseline
// (Shards=0).
func TestShardedDeterminismGrid(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			single := runGridRow(t, row.Make, w, 0)
			for _, shards := range []int{2, 3, 8} {
				requireSameResult(t, fmt.Sprintf("shards=%d", shards),
					single, runGridRow(t, row.Make, w, shards))
			}
		})
	}
}

// runGridRow runs one determinism-grid row at a shard count, with sampling
// on so the per-replica and merged series must match too, not just the
// end-of-run scalars.
func runGridRow(t *testing.T, mk func() (cluster.Config, cluster.BuildEngine), w trace.Workload, shards int) *cluster.Result {
	t.Helper()
	cfg, build := mk()
	cfg.Shards = shards
	cfg.SampleEvery = 250 * time.Millisecond
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

// requireSameResult fails unless got deep-equals want, naming the first
// part that differs.
func requireSameResult(t *testing.T, label string, want, got *cluster.Result) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	switch {
	case !reflect.DeepEqual(want.Report, got.Report):
		t.Fatalf("%s: reports differ:\n%+v\n%+v", label, want.Report, got.Report)
	case !reflect.DeepEqual(want.ScaleEvents, got.ScaleEvents):
		t.Fatalf("%s: scale events differ:\n%+v\n%+v", label, want.ScaleEvents, got.ScaleEvents)
	case !reflect.DeepEqual(want.TransferClasses, got.TransferClasses):
		t.Fatalf("%s: transfer ledgers differ:\n%+v\n%+v", label, want.TransferClasses, got.TransferClasses)
	case want.EventsProcessed != got.EventsProcessed:
		t.Fatalf("%s: processed %d events, want %d", label, got.EventsProcessed, want.EventsProcessed)
	default:
		t.Fatalf("%s: result diverged from the reference run", label)
	}
}

// routedReference runs the round-robin fast-path configuration on the
// routed path instead: event retention is the one layer that
// makes the configuration routed, so arrivals go through the coordinator's routing
// step. The capture is then set aside — Result.Obs is observation only —
// leaving the reference every fast-path run must deep-equal. config builds
// the run's configuration for a shard count; the reference uses one shard.
func routedReference(t *testing.T, config func(shards int) (cluster.Config, cluster.BuildEngine)) *cluster.Result {
	t.Helper()
	cfg, build := config(0)
	cfg.Obs.Events = true
	cl, err := cluster.New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(sessionWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Obs.Events.CountKind(obs.KindRouteDecision); n != len(res.Requests) {
		t.Fatalf("reference routed %d of %d requests through the coordinator", n, len(res.Requests))
	}
	res.Obs = nil
	return res
}

// TestShardedFastPathMatchesRoutedPath exercises the fast path — static
// pool, round-robin routing, no migration, no sampling — where arrivals
// pre-route straight onto the shard clocks, and requires deep equality
// with the routed-path run at every shard count.
func TestShardedFastPathMatchesRoutedPath(t *testing.T) {
	w := sessionWorkload(t)
	config := func(shards int) (cluster.Config, cluster.BuildEngine) {
		_, build := determinismGrid()[0].Make()
		return cluster.Config{Replicas: 3, Policy: router.NewRoundRobin(), Shards: shards}, build
	}
	ref := routedReference(t, config)
	for _, shards := range []int{0, 2, 3} {
		cl, err := cluster.New(config(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d: fast-path result diverged from the routed path", shards)
		}
	}
}

// TestShardedObsByteIdentity: for every determinism-grid row, a run with
// the full flight recorder on records events into shard 0's one recorder,
// serializes every export, and satisfies the cluster invariants. Retained
// events make a run routed, so Normalize clamps it to one shard whatever
// Shards asks for (TestConfigNormalizeDefaults pins that), and a shard
// count cannot change the exports' bytes; TestExportDigests pins those
// bytes for two routed scenarios. CI runs this under -race, so a sink
// written from a goroutine that does not own it fails.
func TestShardedObsByteIdentity(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			cfg, build := row.Make()
			cfg.SampleEvery = 250 * time.Millisecond
			cfg.Obs = obs.Options{Events: true, Series: true, Profile: true, Attribution: true}
			cl, err := cluster.New(cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs.Events.Len() == 0 {
				t.Fatal("the run recorded no events")
			}
			for _, write := range []func(io.Writer) error{
				res.Obs.Events.WriteJSONL, res.Obs.Events.WriteChromeTrace, res.Obs.Series.WriteCSV,
			} {
				if err := write(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			if err := cluster.CheckInvariants(res, w.Len()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedRoutedRunsInline: a routed run executes on one shard inline
// on the coordinator whatever Shards asks for, so a profiled least-queue
// run at Shards=2 records no drain fan-out; the round-robin fast path
// fans out exactly one, its single drain (unless GOMAXPROCS is 1, which
// runs that drain inline too).
func TestShardedRoutedRunsInline(t *testing.T) {
	w := sessionWorkload(t)
	drains := func(policy router.Policy) uint64 {
		_, build := determinismGrid()[0].Make()
		cl, err := cluster.New(cluster.Config{
			Replicas: 4,
			Policy:   policy,
			Shards:   2,
			Obs:      obs.Options{Profile: true},
		}, build)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Obs.Profile.Stat(obs.PhaseShardDrain).Calls
	}
	if n := drains(router.NewLeastQueue()); n != 0 {
		t.Errorf("least-queue at Shards=2: %d drain fan-outs, want 0", n)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("GOMAXPROCS 1 runs the fast path's drain inline")
	}
	if n := drains(router.NewRoundRobin()); n != 1 {
		t.Errorf("round-robin fast path at Shards=2: %d drain fan-outs, want its one drain", n)
	}
}

// TestShardedAttributionOnFastPath: attribution alone keeps the fast path
// (it needs no coordinator events), and its streaming report still
// matches the routed path's exactly.
func TestShardedAttributionOnFastPath(t *testing.T) {
	w := sessionWorkload(t)
	config := func(shards int) (cluster.Config, cluster.BuildEngine) {
		_, build := determinismGrid()[0].Make()
		return cluster.Config{
			Replicas: 3,
			Policy:   router.NewRoundRobin(),
			Shards:   shards,
			Obs:      obs.Options{Attribution: true},
		}, build
	}
	ref := routedReference(t, config)
	if ref.Attribution == nil || ref.Attribution.Requests == 0 {
		t.Fatal("routed reference produced no attribution report")
	}
	for _, shards := range []int{0, 2, 3} {
		cl, err := cluster.New(config(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if got.Obs != nil {
			t.Fatalf("shards=%d: attribution-only run retained a capture: %+v", shards, got.Obs)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d: attribution-only result diverged from the routed path", shards)
		}
	}
}

// TestShardedTimeoutDeterminism: MaxSimTime has one meaning at every shard
// count. A workload whose arrivals outlast the deadline times out with no
// event fired past it, and the timed-out Result — partial reports, censored
// requests, ledgers — is deep-equal at Shards 0, 1, 2, and 3 and still
// satisfies every invariant. Covers the determinism grid on the routed
// path plus the round-robin fast path.
func TestShardedTimeoutDeterminism(t *testing.T) {
	w := sessionWorkload(t) // arrivals span 60 s
	const deadline = 20 * time.Second
	arrived := 0 // the invariants cover the arrivals that fired
	for _, it := range w.Items {
		if time.Duration(it.Arrival) <= deadline {
			arrived++
		}
	}
	type row struct {
		name string
		make func() (cluster.Config, cluster.BuildEngine)
	}
	rows := []row{{"round-robin-fast-path", func() (cluster.Config, cluster.BuildEngine) {
		_, build := determinismGrid()[0].Make()
		return cluster.Config{Replicas: 3, Policy: router.NewRoundRobin()}, build
	}}}
	for _, g := range determinismGrid() {
		g := g
		rows = append(rows, row{g.Name, func() (cluster.Config, cluster.BuildEngine) {
			cfg, build := g.Make()
			cfg.SampleEvery = 250 * time.Millisecond
			return cfg, build
		}})
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			run := func(shards int) *cluster.Result {
				cfg, build := r.make()
				cfg.Shards = shards
				cfg.MaxSimTime = deadline
				cl, err := cluster.New(cfg, build)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.TimedOut {
					t.Fatalf("shards=%d: run did not time out", shards)
				}
				if res.SimEnd > deadline {
					t.Fatalf("shards=%d: clock ran to %v past the %v deadline", shards, res.SimEnd, deadline)
				}
				if err := cluster.CheckInvariants(res, arrived); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			ref := run(0)
			for _, shards := range []int{1, 2, 3} {
				if got := run(shards); !reflect.DeepEqual(ref, got) {
					t.Fatalf("shards=%d: timed-out result diverged from Shards=0", shards)
				}
			}
		})
	}
}
