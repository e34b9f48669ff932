// Observe: the flight recorder end to end. A session workload runs on a
// heterogeneous pool behind session-affinity routing with cost-modelled
// migration on a starved shared NIC — the configuration where the cost
// model earns its keep by declining migrations the wire would lose. The
// run records everything the observability layer offers: the lifecycle
// event bus, the per-tick telemetry series, and the simulator's
// self-profile, then exports all of it into ./observe-out/:
//
//	events.jsonl     one lifecycle event per line (machine-readable log)
//	trace.json       Chrome trace_event JSON — open at ui.perfetto.dev
//	series.csv       named telemetry series (queue depth, KV util, links)
//	profile.json     the simulator's own per-phase wall-clock profile
//	attribution.json critical-path latency breakdown (phase quantiles)
//
// From the attribution report it prints where the run's latency went —
// the per-phase share of total E2E time — and renders the slowest
// request's causal span as a waterfall (the same view
// `tokenflow-trace slowest` gives offline).
//
// The example then replays the exported event log to walk one declined
// migration end to end: the arrival that triggered the divert, the route
// decision that steered the session off its pin holder, the cost model's
// verdict (wire ETA vs recompute estimate), and how the request fared
// afterwards — the exact workflow the JSONL export exists for.
//
// Finally it re-runs the pool with a scripted mid-run replica crash and
// 2-way pin redundancy (exports land in observe-out/chaos/) and walks
// the recovery from the event log: the crash, the orphan retries onto
// survivors, the host-mirror repins — and the crash-recovery waterfall
// of the hardest-hit request, whose lost time shows up as the span's
// retry phase.
//
//	go run ./examples/observe
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/tokenflow"
)

// event mirrors one line of events.jsonl.
type event struct {
	Seq     uint64  `json:"seq"`
	TNs     int64   `json:"t_ns"`
	Kind    string  `json:"kind"`
	Replica int     `json:"replica"`
	Request int     `json:"request"`
	Session int     `json:"session"`
	A       int64   `json:"a"`
	B       int64   `json:"b"`
	C       int64   `json:"c"`
	F       float64 `json:"f"`
	Label   string  `json:"label"`
}

func main() {
	// 200 multi-turn conversations over 3 minutes with 60s flash crowds.
	w := tokenflow.SessionSpikesWorkload(200, 180, 60, 20, 7)

	res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config: tokenflow.Config{
			System: tokenflow.SystemTokenFlow,
			Model:  "Llama3-8B",
			// The full flight recorder, exported after the run.
			Obs: tokenflow.ObsSpec{
				Events:      true,
				Series:      true,
				Profile:     true,
				Attribution: true,
				Out:         "observe-out",
			},
			SampleEvery: 250 * time.Millisecond,
		},
		// 1 big + 2 small replicas: affinity routing overflows the small
		// ones under the spikes, so sessions get diverted off their pins.
		ReplicaSpecs: []tokenflow.ReplicaSpec{
			{GPU: "H200", Count: 1, MemFraction: 0.3},
			{GPU: "RTX-4090", Count: 2, MemFraction: 0.75},
		},
		Router:          tokenflow.RouterSessionAffinity,
		Migrate:         true,
		MigrationPolicy: tokenflow.MigrateCost,
		// One 1 GB/s NIC per replica: a queued prefix transfer often loses
		// to recomputing the prefix on the target, so the cost model
		// declines — those declines are what we trace below.
		Topology: &tokenflow.TopologySpec{
			Kind:     tokenflow.TopologySharedNIC,
			LinkGBps: 1,
		},
	}, w)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run: %d requests, p99 TTFT %.2fs, %d migrations, %d declined by the cost model\n",
		res.Cluster.N, res.Cluster.P99TTFT.Seconds(),
		res.Migrations, res.MigrationsDeclined)
	fmt.Printf("recorded %d lifecycle events -> observe-out/ "+
		"(open trace.json at ui.perfetto.dev)\n\n", res.Obs.EventCount())

	// Where did the latency go? The attribution report decomposes every
	// request's E2E time into exact causal phases.
	rep := res.Attribution
	var e2eTotal int64
	for _, m := range rep.Metrics {
		if m.Name == "e2e" {
			e2eTotal = m.TotalNS
		}
	}
	fmt.Printf("latency attribution over %d requests:\n", rep.Requests)
	for _, m := range rep.Metrics {
		// The phase rows decompose E2E exactly; skip the aggregate
		// ttft/e2e rows themselves.
		if m.Name == "ttft" || m.Name == "e2e" || m.Count == 0 || e2eTotal == 0 {
			continue
		}
		fmt.Printf("  %-9s %5.1f%% of E2E time  (p99 %8.2fms)\n",
			m.Name, 100*float64(m.TotalNS)/float64(e2eTotal), float64(m.P99NS)/1e6)
	}
	if len(rep.Slowest) > 0 {
		fmt.Println("\nslowest request of the run:")
		fmt.Print(tokenflow.Waterfall(rep.Slowest[0], 48))
	}
	fmt.Println()

	// Replay the export: find the first declined migration and walk its
	// session's lifecycle around the verdict.
	events, err := readEvents(filepath.Join("observe-out", "events.jsonl"))
	if err != nil {
		log.Fatal(err)
	}
	var decline *event
	for i := range events {
		if events[i].Kind == "migrate-decline" {
			decline = &events[i]
			break
		}
	}
	if decline == nil {
		fmt.Println("no migration was declined on this run")
	} else {
		walkDecline(events, decline)
	}

	chaosRecovery(w)
}

// walkDecline replays one declined migration's session lifecycle around
// the cost model's verdict.
func walkDecline(events []event, decline *event) {
	fmt.Printf("one declined migration, end to end (session %d):\n", decline.Session)
	shown := 0
	for _, e := range events {
		if e.Session != decline.Session || e.Kind == "decode" {
			continue
		}
		t := float64(e.TNs) / 1e9
		switch e.Kind {
		case "arrival":
			fmt.Printf("  t=%7.3fs  request %d arrives (%d prompt, %d output tokens)\n",
				t, e.Request, e.A, e.B)
		case "route":
			fmt.Printf("  t=%7.3fs  %s routes request %d -> replica %d (score %.1f)\n",
				t, e.Label, e.Request, e.Replica, e.F)
		case "queue":
			hit := "cold"
			if e.A > 0 {
				hit = fmt.Sprintf("%d cached prefix tokens", e.A)
			}
			fmt.Printf("  t=%7.3fs  request %d queued on replica %d (%s)\n",
				t, e.Request, e.Replica, hit)
		case "migrate-decline":
			fmt.Printf("  t=%7.3fs  cost model DECLINES migrating %.0f prefix tokens "+
				"replica %d -> %d: wire ETA %.3fs vs recompute %.3fs\n",
				t, e.F, e.Replica, e.A, float64(e.B)/1e9, float64(e.C)/1e9)
		case "migrate-accept":
			fmt.Printf("  t=%7.3fs  migration committed: replica %d -> %d (%d tokens, %d bytes)\n",
				t, e.Replica, e.A, e.B, e.C)
		case "kv-pin":
			fmt.Printf("  t=%7.3fs  replica %d pins the session prefix (%d tokens, %d pages)\n",
				t, e.Replica, e.A, e.B)
		case "first-token":
			fmt.Printf("  t=%7.3fs  request %d first token on replica %d\n",
				t, e.Request, e.Replica)
		case "complete":
			fmt.Printf("  t=%7.3fs  request %d completes (%d tokens generated)\n",
				t, e.Request, e.A)
		default:
			fmt.Printf("  t=%7.3fs  %s (replica %d, request %d)\n",
				t, e.Kind, e.Replica, e.Request)
		}
		if shown++; shown >= 24 {
			fmt.Println("  ... (session continues; see observe-out/events.jsonl)")
			break
		}
	}
}

// chaosRecovery re-runs the pool with a scripted mid-run crash of
// replica 1 and 2-way pin redundancy, then walks the recovery from the
// exported event log and renders the hardest-hit request's waterfall —
// its lost attempt, detection delay, and backoff all land in the span's
// retry phase.
func chaosRecovery(w tokenflow.Workload) {
	fmt.Println("\ncrash recovery: the same pool, plus a scripted mid-run crash")
	res, err := tokenflow.RunCluster(tokenflow.ClusterConfig{
		Config: tokenflow.Config{
			System: tokenflow.SystemTokenFlow,
			Model:  "Llama3-8B",
			// Redundancy mirrors live in the host prefix-cache tier.
			HostPrefixCache: true,
			Obs: tokenflow.ObsSpec{
				Events:      true,
				Attribution: true,
				Out:         filepath.Join("observe-out", "chaos"),
			},
		},
		ReplicaSpecs: []tokenflow.ReplicaSpec{
			{GPU: "H200", Count: 1, MemFraction: 0.3},
			{GPU: "RTX-4090", Count: 2, MemFraction: 0.75},
		},
		Router: tokenflow.RouterSessionAffinity,
		Chaos: &tokenflow.ChaosSpec{
			Faults:     []tokenflow.FaultSpec{{Kind: tokenflow.FaultCrash, At: tokenflow.Time(65 * time.Second), Replica: 1}},
			Redundancy: 2,
		},
	}, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash of replica 1 at t=65s: %d orphan(s) retried (%d failed), "+
		"%d replication transfers (%.1f GB) on the replicate class\n",
		res.Retries, res.RetryFailures, res.Replications,
		float64(res.ReplicatedBytes)/1e9)

	events, err := readEvents(filepath.Join("observe-out", "chaos", "events.jsonl"))
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	for _, e := range events {
		t := float64(e.TNs) / 1e9
		switch e.Kind {
		case "crash":
			fmt.Printf("  t=%7.3fs  replica %d CRASHES: %d in-flight orphaned, "+
				"%d pins and %d host mirrors lost\n", t, e.Replica, e.A, e.B, e.C)
		case "retry":
			switch e.Label {
			case "reroute":
				fmt.Printf("  t=%7.3fs  orphan %d retries (attempt %d) -> replica %d\n",
					t, e.Request, e.A, e.Replica)
			case "gateway":
				fmt.Printf("  t=%7.3fs  orphan %d re-buffers in the gateway (attempt %d)\n",
					t, e.Request, e.A)
			case "failed":
				fmt.Printf("  t=%7.3fs  orphan %d exhausts its retry budget\n", t, e.Request)
			default:
				continue
			}
		case "replicate":
			// The steady redundancy copies are background noise here; show
			// only the post-crash repins that restore lost pins.
			if e.Label != "repin" {
				continue
			}
			fmt.Printf("  t=%7.3fs  replica %d repins session %d from its host mirror "+
				"(%d tokens)\n", t, e.Replica, e.Session, e.B)
		default:
			continue
		}
		if shown++; shown >= 16 {
			fmt.Println("  ... (see observe-out/chaos/events.jsonl)")
			break
		}
	}

	// The recovery cost is first-class in attribution: find the span that
	// lost the most time to the crash and render its waterfall.
	var worst *tokenflow.AttributionSpan
	for i := range res.Attribution.Slowest {
		s := &res.Attribution.Slowest[i]
		if s.Phases[tokenflow.PhaseRetry] > 0 &&
			(worst == nil || s.Phases[tokenflow.PhaseRetry] > worst.Phases[tokenflow.PhaseRetry]) {
			worst = s
		}
	}
	if worst != nil {
		fmt.Printf("\nhardest-hit request (%.2fs lost to the crash):\n",
			worst.Phases[tokenflow.PhaseRetry].Seconds())
		fmt.Print(tokenflow.Waterfall(*worst, 48))
	}
}

// readEvents parses an events.jsonl export.
func readEvents(path string) ([]event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
