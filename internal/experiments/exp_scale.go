package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/trace"
)

// The scale experiment proves the simulator's envelope rather than a paper
// figure: a 500-replica cluster serving ~1M session-turn requests, run
// through the sharded parallel executor. The benchmark's scale-rr-500
// workload times the same shape at a fraction of its size.

// scaleShards is the fixed shard count of the round-robin reference run.
// The scenario is static + round-robin, so it takes the parallel fast
// path; results are identical at any shard count (the determinism suite
// proves it) and this only sets the parallelism of the reference
// measurement. The least-queue pair is routed: one clock, no barrier.
const scaleShards = 8

// scaleWorkload generates the ~1M-request trace: scaled(182000) chat
// sessions (~5.5 turns each at the default 3..8 turn draw) over a
// 10-minute arrival window, with deliberately light token shapes — the
// experiment stresses event throughput and the per-request hot path, not
// model FLOPs.
func scaleWorkload() trace.Workload {
	return trace.Sessions("scale-sessions", trace.SessionConfig{
		Sessions:        scaled(182000),
		Duration:        scaledDur(600),
		FirstPromptMean: 128, FirstPromptStd: 32,
		FollowupMean: 32, FollowupStd: 8,
		OutputMean: 32, OutputStd: 8,
		MinLen: 16, MaxLen: 512,
		Rates: trace.FixedRate(0), // instant consumers: no buffer stalls
		Seed:  7,
	})
}

// ScaleRun summarizes one run of the scale scenario for the experiment
// table.
type ScaleRun struct {
	Replicas     int
	Shards       int
	Requests     int           // requests that finished generation
	OutputTokens int64         // output tokens generated
	Events       uint64        // simulator events fired across all clocks
	Makespan     time.Duration // simulated time to the last token
	Wall         time.Duration // real time the simulation took
}

// runScale executes the scale scenario — scaled(500) TokenFlow
// replicas behind pol serving scaleWorkload — partitioned across the given
// number of shard goroutines (0 or 1 = one shard).
func runScale(pol router.Policy, shards int) (ScaleRun, *cluster.Result, error) {
	replicas := scaled(500)
	w := scaleWorkload()
	cl, err := cluster.New(cluster.Config{
		Replicas:   replicas,
		Policy:     pol,
		Shards:     shards,
		MaxSimTime: 4 * time.Hour,
	}, cluster.Engines([]cluster.Deployment{dep4090Llama}, tokenFlow.Make))
	if err != nil {
		return ScaleRun{}, nil, err
	}
	// Level the GC pacer before timing: back-to-back runs in one process
	// (the routed pair, the experiment table) otherwise charge the second
	// run with collecting the first one's garbage.
	runtime.GC()
	start := time.Now()
	res, err := cl.Run(w)
	if err != nil {
		return ScaleRun{}, nil, err
	}
	wall := time.Since(start)
	if res.TimedOut {
		return ScaleRun{}, nil, fmt.Errorf("scale: run timed out at %s", res.Makespan)
	}
	return ScaleRun{
		Replicas:     replicas,
		Shards:       shards,
		Requests:     res.Report.Finished,
		OutputTokens: res.Report.TotalOut,
		Events:       res.EventsProcessed,
		Makespan:     res.Makespan,
		Wall:         wall,
	}, res, nil
}

// RunScaleRouted runs the scale scenario twice under least-queue routing —
// the omniscient policy, whose every pick scans all scaled(500) replicas,
// and its indexed twin on the degenerate prefix index, whose pick is a
// tree-root read — and verifies the two runs made identical decisions
// before returning both measurements. The pair is the end-to-end form of
// BenchmarkRouterPick: same results, the wall-clock difference is what the
// per-decision scan cost the gateway. Both runs are routed, so they execute
// on one shard.
func RunScaleRouted() (omni, indexed ScaleRun, err error) {
	omni, omniRes, err := runScale(router.NewLeastQueue(), 1)
	if err != nil {
		return omni, indexed, err
	}
	indexed, idxRes, err := runScale(router.NewIndexedLeastQueue(), 1)
	if err != nil {
		return omni, indexed, err
	}
	if st := idxRes.PrefixIndex; st == nil || st.Published == 0 {
		return omni, indexed, fmt.Errorf("scale-routed: indexed run published no events")
	}
	if !reflect.DeepEqual(omniRes.Report, idxRes.Report) {
		return omni, indexed, fmt.Errorf("scale-routed: indexed run diverged from omniscient least-queue:\n%+v\n%+v",
			omniRes.Report, idxRes.Report)
	}
	if omni.Events != indexed.Events {
		return omni, indexed, fmt.Errorf("scale-routed: degenerate index changed the event count: %d vs %d",
			omni.Events, indexed.Events)
	}
	return omni, indexed, nil
}

// scaleRow renders one ScaleRun as an ExpScale table row.
func scaleRow(name string, run ScaleRun) []string {
	perReq := time.Duration(0)
	if run.Requests > 0 {
		perReq = run.Wall / time.Duration(run.Requests)
	}
	return []string{
		name,
		fint(int64(run.Replicas)),
		fint(int64(run.Shards)),
		fint(int64(run.Requests)),
		fint(run.OutputTokens),
		fint(int64(run.Events)),
		fsec(run.Makespan),
		fsec(run.Wall),
		perReq.String(),
	}
}

// ExpScale runs the scale envelope — the round-robin reference run at the
// reference shard count plus the least-queue routed pair (omniscient scan
// vs prefix-index) on the one shard a routed run executes on — and
// tabulates all three.
func ExpScale() (*Table, error) {
	run, _, err := runScale(router.NewRoundRobin(), scaleShards)
	if err != nil {
		return nil, err
	}
	omni, indexed, err := RunScaleRouted()
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:    "scale",
		Title: "simulator scale envelope (sharded executor)",
		Header: []string{"router", "replicas", "shards", "requests", "out-tokens",
			"events", "sim-makespan", "wall", "wall/request"},
		Rows: [][]string{
			scaleRow(router.NameRoundRobin, run),
			scaleRow(router.NameLeastQueue, omni),
			scaleRow(router.NameIndexedLeastQueue, indexed),
		},
		Notes: "the simulator's envelope, not a paper artifact; " +
			"the least-queue pair makes identical routing decisions — the wall gap " +
			"is the omniscient per-pick replica scan the prefix index removes",
	}, nil
}
