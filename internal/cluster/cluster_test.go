package cluster_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/simtest"
	"repro/internal/trace"
)

// The test pools and systems are the shared fixtures (simtest).
var (
	rtx4090 = simtest.RTX4090
	hetero  = simtest.Hetero

	tokenFlow     = system(engine.SystemTokenFlow, false)
	tokenFlowHost = system(engine.SystemTokenFlow, true) // the redundancy mirrors live in the host tier
)

// system is simtest.NamedSystem: the named system at the paper-default
// TokenFlow tuning, with the host-tier prefix cache on when hostCache is
// set.
var system = simtest.NamedSystem

func sessionWorkload(t *testing.T) trace.Workload {
	t.Helper()
	w := trace.Sessions("test-sessions", trace.SessionConfig{
		Sessions: 24,
		Duration: simclock.FromSeconds(60),
		Rates:    trace.FixedRate(20),
		Seed:     7,
	})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func runPolicy(t *testing.T, replicas int, policy router.Policy, w trace.Workload) *cluster.Result {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Replicas: replicas, Policy: policy}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterInvariants checks, for every policy, that per-replica results
// decompose the cluster totals exactly.
func TestClusterInvariants(t *testing.T) {
	w := sessionWorkload(t)
	for _, name := range router.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := router.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res := runPolicy(t, 4, pol, w)
			if res.TimedOut {
				t.Fatal("cluster run timed out")
			}
			if res.Report.N != w.Len() {
				t.Fatalf("cluster saw %d requests, workload has %d", res.Report.N, w.Len())
			}
			var routed, n, finished int
			var out, hits int64
			for _, rs := range res.PerReplica {
				routed += rs.Routed
				n += rs.Result.Report.N
				finished += rs.Result.Report.Finished
				out += rs.Result.Report.TotalOut
				hits += rs.Result.PrefixHits
			}
			if routed != w.Len() || n != w.Len() {
				t.Errorf("routed=%d registered=%d, want %d", routed, n, w.Len())
			}
			if finished != res.Report.Finished {
				t.Errorf("per-replica finished sum %d != cluster %d", finished, res.Report.Finished)
			}
			if out != res.Report.TotalOut {
				t.Errorf("per-replica token sum %d != cluster %d", out, res.Report.TotalOut)
			}
			if hits != res.PrefixHits {
				t.Errorf("per-replica prefix hits sum %d != cluster %d", hits, res.PrefixHits)
			}
			if res.Imbalance < 1 {
				t.Errorf("imbalance %v < 1", res.Imbalance)
			}
			for i := 1; i < len(res.Requests); i++ {
				if res.Requests[i].ID <= res.Requests[i-1].ID {
					t.Fatalf("merged requests out of ID order at %d", i)
				}
			}
		})
	}
}

// TestClusterDeterminism checks that two identical runs produce identical
// reports.
func TestClusterDeterminism(t *testing.T) {
	w := sessionWorkload(t)
	a := runPolicy(t, 3, router.NewSessionAffinity(), w)
	b := runPolicy(t, 3, router.NewSessionAffinity(), w)
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Error("cluster runs are not deterministic")
	}
	if !reflect.DeepEqual(a.Imbalance, b.Imbalance) || a.PrefixHits != b.PrefixHits {
		t.Error("cluster routing stats are not deterministic")
	}
}

// TestAffinityRoutesTurnsTogether checks that under session-affinity, all
// turns of a session land on one replica when no eviction intervenes.
func TestAffinityRoutesTurnsTogether(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 4, router.NewSessionAffinity(), w)
	// Each non-first turn whose previous turn finished before it arrived
	// should have hit the prefix cache; globally that means a substantial
	// hit count on a think-time-gapped workload.
	turns := 0
	for _, it := range w.Items {
		if it.Turn > 1 {
			turns++
		}
	}
	if res.PrefixHits == 0 {
		t.Fatal("affinity routing produced no prefix-cache hits")
	}
	if res.PrefixHits < int64(turns)/2 {
		t.Errorf("only %d/%d follow-up turns hit the prefix cache", res.PrefixHits, turns)
	}
}

// fixedPolicy routes each request ID to a preassigned replica (testing
// harness for deterministic migration scenarios).
type fixedPolicy struct{ m map[int]int }

func (p *fixedPolicy) Name() string { return "fixed" }
func (p *fixedPolicy) Pick(req router.Request, _ []router.Replica) int {
	return p.m[req.ID]
}

// TestHeterogeneousWeightedRouting: on a mixed H200/4090 pool the
// capacity-weighted policy sends the big replica proportionally more work
// than its small peers, and everything still completes.
func TestHeterogeneousWeightedRouting(t *testing.T) {
	w := sessionWorkload(t)
	cl, err := cluster.New(cluster.Config{
		Replicas: 3,
		Policy:   router.NewWeightedCapacity(),
	}, cluster.Engines(hetero, tokenFlow))
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
	if h, small := res.PerReplica[0].Routed, res.PerReplica[1].Routed; h <= small {
		t.Errorf("H200 routed %d <= 4090's %d; capacity weighting should load the big replica more",
			h, small)
	}
}

// TestMigrationShipsPinnedPrefix pins a session's context on replica 0,
// routes its second turn to replica 1, and checks that with migration the
// prefix arrives there — the turn hits the cache on a replica that never
// served it — while without migration it recomputes.
func TestMigrationShipsPinnedPrefix(t *testing.T) {
	w := trace.Workload{Name: "migrate", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1},
		{Arrival: simclock.FromSeconds(30), PromptLen: 384, OutputLen: 64, Rate: 20, Session: 1, Turn: 2},
	}}
	run := func(migrate bool) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas: 2,
			Policy:   &fixedPolicy{m: map[int]int{0: 0, 1: 1}},
			Migrate:  migrate,
		}, cluster.Engines(rtx4090, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Finished != 2 {
			t.Fatalf("finished %d/2", res.Report.Finished)
		}
		return res
	}

	with := run(true)
	without := run(false)

	if with.Migrations != 1 || with.MigratedTokens != 320 {
		t.Errorf("migrations = %d (%d tokens), want 1 (320 tokens)",
			with.Migrations, with.MigratedTokens)
	}
	if with.PrefixHits != 1 {
		t.Errorf("migrated run prefix hits = %d, want 1 (hit on the target replica)", with.PrefixHits)
	}
	if without.Migrations != 0 || without.PrefixHits != 0 {
		t.Errorf("migration-off run: migrations=%d hits=%d, want 0/0",
			without.Migrations, without.PrefixHits)
	}
	// Shipping 320 tokens of KV must beat recomputing them.
	mTTFT := with.Report.Requests[1].TTFT
	rTTFT := without.Report.Requests[1].TTFT
	if mTTFT >= rTTFT {
		t.Errorf("migrated turn TTFT %v >= recompute TTFT %v", mTTFT, rTTFT)
	}
}

func TestClusterConfigErrors(t *testing.T) {
	if _, err := cluster.New(cluster.Config{Replicas: 2}, cluster.Engines(rtx4090, tokenFlow)); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := cluster.New(cluster.Config{Replicas: -1, Policy: router.NewRoundRobin()}, cluster.Engines(rtx4090, tokenFlow)); err == nil {
		t.Error("negative replicas should fail")
	}
	if _, err := cluster.New(cluster.Config{Replicas: 2, Policy: router.NewRoundRobin()}, nil); err == nil {
		t.Error("nil builder should fail")
	}
	if _, err := cluster.New(cluster.Config{Replicas: 2, Policy: router.NewRoundRobin(), Shards: -1}, cluster.Engines(rtx4090, tokenFlow)); err == nil {
		t.Error("negative shard count should fail")
	}
	cl, err := cluster.New(cluster.Config{Replicas: 2, Policy: router.NewRoundRobin()}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(trace.Workload{Name: "empty"}); err == nil {
		t.Error("empty workload should fail")
	}
}

// TestRunValidatesWorkload: one validation pass covers the whole pool. On
// the heterogeneous pool (an H200 ahead of two RTX-4090s, ~200k and ~42k
// KV tokens) a request that fits the H200 but not a 4090 is rejected, and
// the error names the lowest-id smallest replica.
func TestRunValidatesWorkload(t *testing.T) {
	cases := []struct {
		name string
		w    trace.Workload
		want string // substring of the error
	}{
		{"empty", trace.Workload{Name: "empty"}, "empty workload"},
		{"invalid", trace.Workload{Name: "disorder", Items: []trace.Item{
			{Arrival: simclock.FromSeconds(2), PromptLen: 64, OutputLen: 64},
			{Arrival: simclock.FromSeconds(1), PromptLen: 64, OutputLen: 64},
		}}, "item 1 arrives"},
		{"fits-large-not-small", trace.Workload{Name: "big", Items: []trace.Item{
			{PromptLen: 64, OutputLen: 64},
			{PromptLen: 30000, OutputLen: 20000},
		}}, "replica 1: request 1 context 50000 exceeds KV capacity"},
	}
	for _, c := range cases {
		cl, err := cluster.New(cluster.Config{Replicas: 3, Policy: router.NewRoundRobin()}, cluster.Engines(hetero, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(c.w); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestFullMeshTopologyMatchesDefault is the refactor's equivalence anchor:
// an explicit full-mesh TopologySpec with per-pair dedicated links at the
// default bandwidth must reproduce the nil-topology (pre-fabric) cluster
// results exactly — for a migrating static cluster and for an autoscaled
// one with pre-warming.
func TestFullMeshTopologyMatchesDefault(t *testing.T) {
	w := sessionWorkload(t)

	runStatic := func(topo *fabric.Spec) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas: 3,
			Policy:   router.NewSessionAffinity(),
			Migrate:  true,
			Topology: topo,
		}, cluster.Engines(hetero, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := runStatic(nil)
	mesh := runStatic(&fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25})
	if !reflect.DeepEqual(def.Report, mesh.Report) {
		t.Errorf("explicit full mesh diverges from default:\ndefault: %+v\nmesh:    %+v",
			def.Report, mesh.Report)
	}
	if def.Migrations != mesh.Migrations || def.MigratedTokens != mesh.MigratedTokens {
		t.Errorf("migrations %d/%d tokens differ from %d/%d",
			def.Migrations, def.MigratedTokens, mesh.Migrations, mesh.MigratedTokens)
	}

	runScaled := func(topo *fabric.Spec) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas: 3,
			Policy:   router.NewSessionAffinity(),
			Topology: topo,
			Autoscale: &cluster.AutoscaleConfig{
				Policy: autoscale.NewQueuePressure(),
				Min:    1, Max: 3,
				Warmup:  2 * time.Second,
				Prewarm: true,
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
	sdef := runScaled(nil)
	smesh := runScaled(&fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25})
	if !reflect.DeepEqual(sdef.Report, smesh.Report) {
		t.Errorf("autoscaled full mesh diverges from default:\ndefault: %+v\nmesh:    %+v",
			sdef.Report, smesh.Report)
	}
	if sdef.Prewarms != smesh.Prewarms || sdef.GPUSeconds != smesh.GPUSeconds {
		t.Errorf("prewarm/GPU-seconds differ: %d/%.1f vs %d/%.1f",
			sdef.Prewarms, sdef.GPUSeconds, smesh.Prewarms, smesh.GPUSeconds)
	}
}

// TestCostModelDeclinesMigrationOnNarrowNIC is the migration cost model's
// acceptance scenario: a divert the always-migrate policy ships over a
// starved shared NIC gets declined by the cost model — recomputing the
// prefix on the target is faster than the queued wire — and the declined
// run ends with strictly better tail TTFT on that topology. On a fat
// interconnect the same cost model still migrates.
func TestCostModelDeclinesMigrationOnNarrowNIC(t *testing.T) {
	w := trace.Workload{Name: "divert", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1},
		{Arrival: simclock.FromSeconds(30), PromptLen: 384, OutputLen: 64, Rate: 20, Session: 1, Turn: 2},
	}}
	run := func(policy cluster.MigrationPolicy, topo *fabric.Spec) *cluster.Result {
		cl, err := cluster.New(cluster.Config{
			Replicas:        2,
			Policy:          &fixedPolicy{m: map[int]int{0: 0, 1: 1}},
			Migrate:         true,
			MigrationPolicy: policy,
			Topology:        topo,
		}, cluster.Engines(rtx4090, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Finished != 2 {
			t.Fatalf("finished %d/2", res.Report.Finished)
		}
		return res
	}

	narrow := &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 0.01}
	always := run(cluster.MigrateAlways, narrow)
	cost := run(cluster.MigrateCost, narrow)

	if always.Migrations != 1 {
		t.Fatalf("always-migrate shipped %d migrations, want 1", always.Migrations)
	}
	if cost.Migrations != 0 || cost.MigrationsDeclined != 1 {
		t.Errorf("cost model: %d migrations, %d declined; want 0 and 1",
			cost.Migrations, cost.MigrationsDeclined)
	}
	if cost.Report.P99TTFT >= always.Report.P99TTFT {
		t.Errorf("declining the starved wire should win: cost P99 %v >= always %v",
			cost.Report.P99TTFT, always.Report.P99TTFT)
	}

	// A fat mesh flips the break-even: the same cost model migrates.
	fat := run(cluster.MigrateCost, &fabric.Spec{Kind: fabric.FullMesh, LinkGBps: 25})
	if fat.Migrations != 1 || fat.MigrationsDeclined != 0 {
		t.Errorf("fat-link cost model: %d migrations, %d declined; want 1 and 0",
			fat.Migrations, fat.MigrationsDeclined)
	}
}

// TestTransferClassLedger: the cluster result carries the fabric's
// per-class ledger, and engine-side traffic (sync, evict, load) lands in
// it alongside interconnect migrations.
func TestTransferClassLedger(t *testing.T) {
	w := sessionWorkload(t)
	res := runPolicy(t, 2, router.NewSessionAffinity(), w)
	classes := map[string]fabric.ClassStats{}
	for _, cs := range res.TransferClasses {
		classes[cs.Class.String()] = cs
	}
	if len(classes) != 9 {
		t.Fatalf("ledger has %d classes: %+v", len(classes), res.TransferClasses)
	}
	if classes["sync"].Bytes == 0 {
		t.Error("write-through traffic missing from the sync class")
	}
}

// TestClientReadingIsNotPerTokenEvents guards the closed-form client
// reading model (internal/request): a reading client costs the clock one
// end-of-reading event per request, not one event per token read. Read
// ticks alone would outnumber the output tokens, so a return to per-token
// events fails the quarter-token bound on this small BurstGPT run.
func TestClientReadingIsNotPerTokenEvents(t *testing.T) {
	w := trace.BurstGPT("burst-events", trace.BurstGPTConfig{
		Duration:   simclock.FromSeconds(30),
		BaseRate:   4,
		GammaShape: 0.35,
		Lengths: trace.NormalLengths{
			PromptMean: 512, PromptStd: 128,
			OutputMean: 256, OutputStd: 64,
			Min: 16, Max: 1024,
		},
		Rates: trace.FixedRate(20),
		Seed:  7,
	})
	res := runPolicy(t, 2, router.NewLeastQueue(), w)
	if res.TimedOut || res.Report.Finished != w.Len() {
		t.Fatalf("run did not finish: timed out %v, %d/%d finished", res.TimedOut, res.Report.Finished, w.Len())
	}
	tokens := res.Report.TotalOut
	t.Logf("%d events for %d output tokens of %d requests", res.EventsProcessed, tokens, w.Len())
	if int64(res.EventsProcessed) >= tokens/4 {
		t.Errorf("%d events for %d output tokens, want fewer than %d", res.EventsProcessed, tokens, tokens/4)
	}
}

// TestTimedOutRunEndsAtLastReadTick: client reads are computed rather than
// put on the clock, yet a run that times out mid-read ends where it would
// had every read been an event — at the client's latest read tick before
// the deadline, long after the last token was generated.
func TestTimedOutRunEndsAtLastReadTick(t *testing.T) {
	w := trace.Workload{Name: "slow-reader", Items: []trace.Item{{PromptLen: 64, OutputLen: 200, Rate: 1}}}
	deadline := simclock.FromSeconds(50.5)
	cl, err := cluster.New(cluster.Config{
		Replicas:   1,
		Policy:     router.NewRoundRobin(),
		MaxSimTime: time.Duration(deadline),
	}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Requests[0]
	if !res.TimedOut || !r.GenerationDone() || r.FinishedAt > simclock.FromSeconds(20) {
		t.Fatalf("want generation done early and reading cut by the deadline: timed out %v, finished at %v",
			res.TimedOut, r.FinishedAt)
	}
	second := simclock.Time(time.Second)
	want := r.FirstTokenAt + (deadline-r.FirstTokenAt)/second*second
	if res.SimEnd != time.Duration(want) {
		t.Errorf("run ended at %v, want the last read tick %v", simclock.Time(res.SimEnd), want)
	}
	if got := r.Consumed(); got != int((want-r.FirstTokenAt)/second)+1 {
		t.Errorf("client read %d tokens by the deadline, want %d", got, int((want-r.FirstTokenAt)/second)+1)
	}
}

// newAllocsPerReplica bounds what cluster.New allocates per replica when
// the engine builder is stubbed out: the replica record, its fabric
// endpoint, the amortized growth of the per-replica tables, and under
// the shared NIC its two NIC links and their names.
const newAllocsPerReplica = 8

// TestNewAllocationBound guards cluster.New's build cost at 500 replicas:
// with a stub builder that hands out one prebuilt engine, everything New
// lays out — shards, replicas, fabric endpoints, the topology — is O(N),
// at most newAllocsPerReplica allocations per replica. Under the full mesh
// no pair link is built; under the shared NIC the NICs are part of the
// bound.
func TestNewAllocationBound(t *testing.T) {
	const replicas = 500
	eng, err := cluster.Engines(rtx4090, tokenFlow)(0, simclock.New(), fabric.NewSingleHost(1e9, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	stub := func(int, *simclock.Clock, *fabric.Endpoint) (*engine.Engine, error) { return eng, nil }
	for _, spec := range []fabric.Spec{{Kind: fabric.FullMesh}, {Kind: fabric.SharedNIC, SwitchGBps: 10}} {
		spec := spec
		cfg := cluster.Config{Replicas: replicas, Shards: 2, Policy: router.NewRoundRobin(), Topology: &spec}
		got := testing.AllocsPerRun(3, func() {
			if _, err := cluster.New(cfg, stub); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(newAllocsPerReplica * replicas); got > limit {
			t.Errorf("%s: cluster.New at %d replicas allocates %v objects, want at most %v (%d per replica)",
				spec.Kind, replicas, got, limit, newAllocsPerReplica)
		}
		t.Logf("%s: %v allocations at %d replicas", spec.Kind, got, replicas)
	}
}
