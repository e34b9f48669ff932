package cluster_test

// Shard-count equivalence: for every row of the determinism grid
// (autoscale × topology × migration), a run partitioned across parallel
// shard goroutines must produce a Result deeply identical to the one-shard
// run of the same seed and spec — reports,
// per-request token totals, fabric ledgers, scale events, event
// counts, everything. CI runs these under -race, so a shard touching
// state it does not own fails even when the merged result happens to
// match.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/trace"
)

// TestShardedDeterminismGrid proves sharded execution is a pure
// performance change across the full grid: Shards ∈ {2, 3, 8} (8 clamps
// to the replica count) against the one-shard baseline (Shards=0).
func TestShardedDeterminismGrid(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			single := runGridRow(t, row.Make, w, 0, cluster.WindowGated)
			for _, shards := range []int{2, 3, 8} {
				requireSameResult(t, fmt.Sprintf("shards=%d", shards),
					single, runGridRow(t, row.Make, w, shards, cluster.WindowGated))
			}
		})
	}
}

// runGridRow runs one determinism-grid row at a shard count and barrier
// window mode, with sampling on so the merged series and imbalance series
// must match too, not just the end-of-run scalars.
func runGridRow(t *testing.T, mk func() (cluster.Config, cluster.BuildEngine), w trace.Workload,
	shards int, mode cluster.WindowMode) *cluster.Result {
	t.Helper()
	cfg, build := mk()
	cfg.Shards = shards
	cfg.SampleEvery = 250 * time.Millisecond
	cl, err := cluster.New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWindowMode(mode)
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
// routed barrier path instead: event retention is the one layer
// fastShardPath excludes, so arrivals go through the coordinator's routing
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

// TestShardedFastPathMatchesBarrierPath exercises the barrier-free fast
// path — static pool, round-robin routing, no migration, no sampling —
// where arrivals pre-route straight onto the shard clocks, and requires
// deep equality with the routed barrier-path run at every shard count.
func TestShardedFastPathMatchesBarrierPath(t *testing.T) {
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
			t.Fatalf("shards=%d: fast-path result diverged from the routed barrier path", shards)
		}
	}
}

// TestShardedObsByteIdentity is the sharded-safe-recording acceptance
// gate: for every determinism-grid row, a sharded run with the full
// flight recorder on must export the exact bytes of the one-shard run —
// the JSONL event stream, the Chrome trace, and the series CSV — and
// derive a deeply identical attribution report. Per-shard recorders
// plus the deterministic (time, replica, recorder, sequence) merge are
// what make this hold; CI runs it under -race so a shard writing a sink
// it does not own fails even when the merged bytes happen to match.
func TestShardedObsByteIdentity(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			single := runObsExport(t, row.Make, w, 0, cluster.WindowGated)
			if single.events == 0 {
				t.Fatal("one-shard run recorded no events")
			}
			if err := cluster.CheckInvariants(single.res, w.Len()); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 8} {
				got := runObsExport(t, row.Make, w, shards, cluster.WindowGated)
				requireSameExport(t, fmt.Sprintf("shards=%d", shards), single, got)
				if err := cluster.CheckInvariants(got.res, w.Len()); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
			}
		})
	}
}

// obsExport is one fully recorded run and its serialized exports.
type obsExport struct {
	res    *cluster.Result
	jsonl  string
	trace  string
	csv    string
	events int
}

// runObsExport runs one determinism-grid row at a shard count and barrier
// window mode with the whole flight recorder on, and serializes its event
// stream, Chrome trace and series.
func runObsExport(t *testing.T, mk func() (cluster.Config, cluster.BuildEngine), w trace.Workload,
	shards int, mode cluster.WindowMode) obsExport {
	t.Helper()
	cfg, build := mk()
	cfg.Shards = shards
	cfg.SampleEvery = 250 * time.Millisecond
	cfg.Obs = obs.Options{Events: true, Series: true, Profile: true, Attribution: true}
	cl, err := cluster.New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWindowMode(mode)
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Obs.Events
	var jsonl, chrome, csv strings.Builder
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return obsExport{res, jsonl.String(), chrome.String(), csv.String(), rec.Len()}
}

// requireSameExport fails unless got's exports are byte-identical to
// want's and its attribution report deep-equal.
func requireSameExport(t *testing.T, label string, want, got obsExport) {
	t.Helper()
	if got.jsonl != want.jsonl {
		t.Fatalf("%s: JSONL export differs from the reference run", label)
	}
	if got.trace != want.trace {
		t.Fatalf("%s: Chrome trace export differs from the reference run", label)
	}
	if got.csv != want.csv {
		t.Fatalf("%s: series CSV export differs from the reference run", label)
	}
	if !reflect.DeepEqual(got.res.Attribution, want.res.Attribution) {
		t.Fatalf("%s: attribution report differs:\n%+v\n%+v", label, got.res.Attribution, want.res.Attribution)
	}
}

// TestShardedExecutionModes: how a barrier window runs — inline on the
// coordinator, fanned out to one goroutine per busy shard, or as the
// fan-out gate decides — changes no output. Every determinism-grid row,
// at Shards 2, 3 and 8 under each mode, must deep-equal the one-shard
// Result and export the one-shard bytes. The small test scenarios run
// almost every window inline under the gate, so forcing fan-out is what
// keeps the -race suites running shards concurrently; the coordinator's
// profile shows each forced mode really ran.
func TestShardedExecutionModes(t *testing.T) {
	w := sessionWorkload(t)
	modes := []struct {
		name string
		mode cluster.WindowMode
	}{{"gated", cluster.WindowGated}, {"inline", cluster.WindowInline}, {"fanout", cluster.WindowFanout}}
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			single := runGridRow(t, row.Make, w, 0, cluster.WindowGated)
			singleExport := runObsExport(t, row.Make, w, 0, cluster.WindowGated)
			for _, m := range modes {
				for _, shards := range []int{2, 3, 8} {
					label := fmt.Sprintf("%s shards=%d", m.name, shards)
					requireSameResult(t, label, single, runGridRow(t, row.Make, w, shards, m.mode))
					got := runObsExport(t, row.Make, w, shards, m.mode)
					requireSameExport(t, label, singleExport, got)
					fanouts := got.res.Obs.Profile.Stat(obs.PhaseBarrierFanout).Calls
					switch {
					case m.mode == cluster.WindowInline && fanouts != 0:
						t.Fatalf("%s: %d windows fanned out", label, fanouts)
					case m.mode == cluster.WindowFanout && fanouts == 0:
						t.Fatalf("%s: no window fanned out", label)
					}
				}
			}
		})
	}
}

// TestShardedAttributionOnFastPath: attribution alone keeps the
// barrier-free fast path (it needs no coordinator events), and its
// streaming report still matches the routed barrier path's exactly.
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
			t.Fatalf("shards=%d: attribution-only result diverged from the routed barrier path", shards)
		}
	}
}

// TestShardedTimeoutDeterminism: MaxSimTime has one meaning at every shard
// count. A workload whose arrivals outlast the deadline times out with no
// event fired past it, and the timed-out Result — partial reports, censored
// requests, ledgers — is deep-equal at Shards 0, 1, 2, and 3 and still
// satisfies every invariant. Covers the determinism grid on the barrier
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
