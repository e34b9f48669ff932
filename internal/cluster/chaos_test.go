package cluster_test

// Black-box chaos suite: end-to-end recovery scenarios checked against
// the full invariant set, the chaos determinism grid (one shard ×
// several, run under -race in CI), the zero-fault byte-identity gate,
// and the recovery benchmark.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func crashFault(replica int, atSec float64) chaos.Fault {
	return chaos.Fault{Kind: chaos.Crash, At: simclock.FromSeconds(atSec), Replica: replica}
}

// TestBrownoutClosesAtFirstToken pins the coordinator-first tie rule,
// which no golden output checks. One replica serves one request; a
// brownout opens 1 ns after the arrival, when the prefill iteration has
// already launched, and closes at the exact instant of the request's first
// token, the end of that prefill iteration. At an exact instant the
// coordinator goes first, so the window closes before the decode iteration
// launches: no iteration launches inside it, and the run reports exactly
// what the run without the brownout reports. Were coordinator events
// ordered like the engines' (by scheduling instant), the prefill's end,
// scheduled before the brownout opened, would launch the first decode
// iteration inside the window, slowed.
func TestBrownoutClosesAtFirstToken(t *testing.T) {
	arrival := simclock.FromSeconds(1)
	w := trace.Workload{Name: "one-request", Items: []trace.Item{
		{Arrival: arrival, PromptLen: 512, OutputLen: 64},
	}}
	run := func(spec *chaos.Spec) *cluster.Result {
		t.Helper()
		cl, err := cluster.New(cluster.Config{Replicas: 1, Policy: router.NewRoundRobin(), Chaos: spec},
			cluster.Engines(rtx4090, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(nil)
	open, firstToken := arrival+1, ref.Requests[0].FirstTokenAt
	if firstToken <= open {
		t.Fatalf("first token at %v leaves no window after %v", firstToken, open)
	}
	got := run(&chaos.Spec{Faults: []chaos.Fault{{Kind: chaos.Brownout, At: open, Replica: 0,
		Factor: 4, Duration: firstToken.Sub(open)}}})
	if got.Brownouts != 1 {
		t.Fatalf("brownouts = %d, want 1", got.Brownouts)
	}
	if !reflect.DeepEqual(got.Report, ref.Report) {
		t.Errorf("report differs from the run without the brownout:\n%+v\n%+v", got.Report, ref.Report)
	}
	if !reflect.DeepEqual(got.Requests, ref.Requests) {
		t.Errorf("request differs from the run without the brownout:\n%+v\n%+v", *got.Requests[0], *ref.Requests[0])
	}
}

// TestChaosRecoveryScenarios runs end-to-end fault scenarios and holds
// each to the full invariant set plus scenario-specific recovery claims.
// Every request must be accounted for — finished, shed, or counted as a
// permanent retry failure — whatever the fault plan does to the pool.
func TestChaosRecoveryScenarios(t *testing.T) {
	w := sessionWorkload(t)
	scenarios := []struct {
		name   string
		make   func() (cluster.Config, cluster.BuildEngine)
		assert func(t *testing.T, res *cluster.Result)
	}{
		{
			// The pool scales to zero before traffic, so the first arrivals
			// buffer in the gateway behind a cold start — and the warming
			// replica crashes before its window ends. The orphan-free crash
			// must backfill through a second cold start and still drain the
			// gateway: nothing is lost, at most re-buffered.
			name: "crash-while-gateway-drains-into-warming-replica",
			make: func() (cluster.Config, cluster.BuildEngine) {
				return cluster.Config{
					Replicas: 2,
					Policy:   router.NewSessionAffinity(),
					Chaos:    &chaos.Spec{Faults: []chaos.Fault{crashFault(0, 1.0)}},
					Autoscale: &cluster.AutoscaleConfig{
						Policy:      autoscale.NewQueuePressure(),
						Max:         2,
						Warmup:      3 * time.Second,
						ScaleToZero: true,
					},
				}, cluster.Engines(rtx4090, tokenFlow)
			},
			assert: func(t *testing.T, res *cluster.Result) {
				if res.Crashes != 1 {
					t.Errorf("crashes = %d, want 1", res.Crashes)
				}
				if res.Backfills < 1 {
					t.Errorf("backfills = %d, want the crashed replica resurrected", res.Backfills)
				}
				if res.RetryFailures != 0 {
					t.Errorf("%d requests failed permanently despite the gateway", res.RetryFailures)
				}
			},
		},
		{
			// Both replicas die in quick succession with no autoscaler to
			// backfill: orphans burn their whole retry budget against an
			// empty pool and count failed; arrivals after the second crash
			// shed at the gateway-less front door. The invariant suite checks
			// the exact conservation (finished + failed == admitted, sheds
			// in the admission ledger).
			name: "double-crash-before-backfill",
			make: func() (cluster.Config, cluster.BuildEngine) {
				return cluster.Config{
					Replicas: 2,
					Policy:   router.NewSessionAffinity(),
					Chaos: &chaos.Spec{
						Faults: []chaos.Fault{crashFault(0, 8), crashFault(1, 8.2)},
					},
				}, cluster.Engines(rtx4090, tokenFlow)
			},
			assert: func(t *testing.T, res *cluster.Result) {
				if res.Crashes != 2 {
					t.Errorf("crashes = %d, want 2", res.Crashes)
				}
				if res.RetryFailures == 0 {
					t.Error("no permanent retry failures with the whole pool dead")
				}
				if res.GatewayShed == 0 {
					t.Error("no arrivals shed after the pool died")
				}
				if res.Backfills != 0 {
					t.Errorf("backfills = %d without an autoscaler", res.Backfills)
				}
			},
		},
		{
			// The whole live pool dies with an autoscaler watching: under
			// scale-to-zero the light load keeps one replica in service, so
			// the scripted pair of crashes kills every live replica (a crash
			// aimed at an already-off replica is a no-op). The control loop
			// backfills through the warm-up path, and retries that found
			// nothing alive re-enter the scale-to-zero gateway instead of
			// failing.
			name: "live-pool-crash-then-autoscale-backfill",
			make: func() (cluster.Config, cluster.BuildEngine) {
				return cluster.Config{
					Replicas: 2,
					Policy:   router.NewSessionAffinity(),
					Chaos: &chaos.Spec{
						Faults: []chaos.Fault{crashFault(0, 8), crashFault(1, 8.2)},
					},
					Autoscale: &cluster.AutoscaleConfig{
						Policy:      autoscale.NewQueuePressure(),
						Max:         2,
						Warmup:      2 * time.Second,
						ScaleToZero: true,
					},
				}, cluster.Engines(rtx4090, tokenFlow)
			},
			assert: func(t *testing.T, res *cluster.Result) {
				if res.Crashes < 1 {
					t.Errorf("crashes = %d, want the live pool killed", res.Crashes)
				}
				if res.Backfills < 1 {
					t.Errorf("backfills = %d, want at least one resurrection", res.Backfills)
				}
				if res.RetryFailures != 0 {
					t.Errorf("%d orphans failed despite gateway and backfill", res.RetryFailures)
				}
			},
		},
		{
			// A brownout is not a crash: the slow window inflates latency but
			// orphans nothing and triggers no recovery machinery.
			name: "brownout-recovers-alone",
			make: func() (cluster.Config, cluster.BuildEngine) {
				return cluster.Config{
					Replicas: 2,
					Policy:   router.NewSessionAffinity(),
					Chaos: &chaos.Spec{
						Faults: []chaos.Fault{{Kind: chaos.Brownout,
							At: simclock.FromSeconds(5), Replica: 0,
							Factor: 4, Duration: 10 * time.Second}},
					},
				}, cluster.Engines(rtx4090, tokenFlow)
			},
			assert: func(t *testing.T, res *cluster.Result) {
				if res.Brownouts != 1 {
					t.Errorf("brownouts = %d, want 1", res.Brownouts)
				}
				if res.Crashes != 0 || res.Retries != 0 || res.RetryFailures != 0 {
					t.Errorf("brownout triggered crash machinery: %d crashes, %d retries, %d failed",
						res.Crashes, res.Retries, res.RetryFailures)
				}
			},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg, build := sc.make()
			cl, err := cluster.New(cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.CheckInvariants(res, w.Len()); err != nil {
				t.Fatal(err)
			}
			sc.assert(t, res)
		})
	}
}

// chaosDeterminismGrid spans the chaos dimensions: scripted mixed
// faults, redundancy replication, seeded random plans, and a crash
// under autoscale + gateway.
func chaosDeterminismGrid() []struct {
	name string
	make func() (cluster.Config, cluster.BuildEngine)
} {
	return []struct {
		name string
		make func() (cluster.Config, cluster.BuildEngine)
	}{
		{"scripted-mixed-faults", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				Chaos: &chaos.Spec{Faults: []chaos.Fault{
					{Kind: chaos.Brownout, At: simclock.FromSeconds(4), Replica: 2,
						Factor: 3, Duration: 5 * time.Second},
					{Kind: chaos.LinkFlap, At: simclock.FromSeconds(6),
						From: 0, To: 2, Duration: 3 * time.Second},
					crashFault(1, 8),
				}},
			}, cluster.Engines(rtx4090, tokenFlowHost)
		}},
		{"crash-with-redundancy", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				Chaos: &chaos.Spec{
					Faults:     []chaos.Fault{crashFault(1, 8)},
					Redundancy: 2,
				},
			}, cluster.Engines(rtx4090, tokenFlowHost)
		}},
		{"random-seeded-plan", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewLeastQueue(),
				Chaos: &chaos.Spec{
					RandomFaults: 3, Seed: 11,
					Horizon:    simclock.FromSeconds(30),
					Redundancy: 2,
				},
			}, cluster.Engines(rtx4090, tokenFlowHost)
		}},
		{"crash-under-autoscale-gateway", func() (cluster.Config, cluster.BuildEngine) {
			return cluster.Config{
				Replicas: 3, Policy: router.NewSessionAffinity(),
				Chaos: &chaos.Spec{Faults: []chaos.Fault{crashFault(0, 8), crashFault(2, 12)}},
				Autoscale: &cluster.AutoscaleConfig{
					Policy:      autoscale.NewQueuePressure(),
					Max:         3,
					Warmup:      2 * time.Second,
					ScaleToZero: true,
				},
			}, cluster.Engines(rtx4090, tokenFlowHost)
		}},
	}
}

// TestChaosDeterminismGrid: an identical ChaosSpec must produce a deeply
// identical Result across repeated runs and across shard counts — every
// fault fires as a coordinator event while the shards are quiescent, so
// chaos must be exactly as deterministic as the fault-free engine. CI
// runs this under -race.
func TestChaosDeterminismGrid(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range chaosDeterminismGrid() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func(shards int) *cluster.Result {
				cfg, build := row.make()
				cfg.Shards = shards
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
			single := run(0)
			if err := cluster.CheckInvariants(single, w.Len()); err != nil {
				t.Fatal(err)
			}
			if again := run(0); !reflect.DeepEqual(single, again) {
				t.Fatal("repeated chaos runs differ on the same spec")
			}
			for _, shards := range []int{2, 3} {
				got := run(shards)
				if reflect.DeepEqual(single, got) {
					continue
				}
				switch {
				case !reflect.DeepEqual(single.Report, got.Report):
					t.Fatalf("shards=%d: reports differ:\n%+v\n%+v", shards, single.Report, got.Report)
				case !reflect.DeepEqual(single.ScaleEvents, got.ScaleEvents):
					t.Fatalf("shards=%d: scale events differ:\n%+v\n%+v",
						shards, single.ScaleEvents, got.ScaleEvents)
				case single.Crashes != got.Crashes || single.Retries != got.Retries ||
					single.Replications != got.Replications:
					t.Fatalf("shards=%d: chaos counters differ: %d/%d/%d vs %d/%d/%d",
						shards, got.Crashes, got.Retries, got.Replications,
						single.Crashes, single.Retries, single.Replications)
				default:
					t.Fatalf("shards=%d: chaos result diverged from one-shard run", shards)
				}
			}
		})
	}
}

// TestChaosZeroFaultByteIdentity is the purity gate: a present-but-empty
// ChaosSpec (no faults, no redundancy) must reproduce the fault-free run
// exactly — same Result, byte-identical event log and series export. The
// whole chaos layer must cost nothing when it does nothing.
func TestChaosZeroFaultByteIdentity(t *testing.T) {
	w := sessionWorkload(t)
	run := func(spec *chaos.Spec) (*cluster.Result, string, string) {
		cl, err := cluster.New(cluster.Config{
			Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
			Chaos:       spec,
			SampleEvery: 250 * time.Millisecond,
			Obs:         obs.Options{Events: true, Series: true, Attribution: true},
		}, cluster.Engines(rtx4090, tokenFlowHost))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		var jsonl, csv strings.Builder
		if err := res.Obs.Events.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		if err := res.Obs.Series.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, jsonl.String(), csv.String()
	}
	plain, pj, pc := run(nil)
	empty, ej, ec := run(&chaos.Spec{})
	if pj != ej {
		t.Error("zero-fault spec changed the event JSONL export")
	}
	if pc != ec {
		t.Error("zero-fault spec changed the series CSV export")
	}
	if !reflect.DeepEqual(plain.Attribution, empty.Attribution) {
		t.Error("zero-fault spec changed the attribution report")
	}
	plain.Obs, empty.Obs = nil, nil
	plain.Attribution, empty.Attribution = nil, nil
	if !reflect.DeepEqual(plain, empty) {
		t.Error("zero-fault spec changed the cluster result")
	}
}

// BenchmarkChaosRecovery prices the full recovery path — crash, retries,
// mirror repins, redundancy replication — on a 3-replica cluster, for
// the CI bench smoke ledger.
func BenchmarkChaosRecovery(b *testing.B) {
	w := trace.Sessions("bench-chaos", trace.SessionConfig{
		Sessions: 24,
		Duration: simclock.FromSeconds(60),
		Rates:    trace.FixedRate(20),
		Seed:     7,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(cluster.Config{
			Replicas: 3, Policy: router.NewSessionAffinity(),
			Chaos: &chaos.Spec{
				Faults:     []chaos.Fault{crashFault(1, 10)},
				Redundancy: 2,
			},
		}, cluster.Engines(rtx4090, tokenFlowHost))
		if err != nil {
			b.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if res.Crashes != 1 {
			b.Fatalf("crashes = %d", res.Crashes)
		}
	}
}
