package cluster_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Write-through sync landings are settled on read, not fired as clock
// events, so the drain moves each shard clock on to the last landing where
// its event used to leave it. The expected figures are the ones the
// event-per-landing simulator produced. The pool is one RTX-4090 on a
// 0.08 GB/s host link under Fig 9's unchunked write-through, with instant
// readers, so no read tick outlasts the last token.
func TestSyncLandingTailKeepsSimEnd(t *testing.T) {
	cases := []struct {
		name    string
		crashAt float64 // seconds; negative for none
		maxSim  time.Duration
		// SimEnd and makespan in nanoseconds, and whether the run timed out.
		simEnd, makespan int64
		timedOut         bool
	}{
		// Fig 9's cell: each iteration boundary waits for the outstanding
		// writes, so the final stall, an event, ends at the last landing.
		{"final-iteration", -1, 0, 37868198949, 37868198949, false},
		// The crash at 2 s cancels an iteration but not the writes booked
		// at its start, which land well after the orphans exhaust their
		// retries at 4 s: the last landing ends the run.
		{"crash-mid-iteration", 2, 0, 9384755200, 9384755200, false},
		// The same run cut at 6 s ends at the last landing before the
		// deadline, and the landings after it are work left over.
		{"crash-mid-iteration-deadline", 2, 6 * time.Second, 5950668800, 5950668800, true},
	}
	dep := rtx4090[0]
	dep.GPU.PCIeGBps = 0.08
	lengths := trace.NormalLengths{PromptMean: 256, PromptStd: 64, OutputMean: 512, OutputStd: 128, Min: 16, Max: 8192}
	w := trace.Burst("sync-tail", 24, 0, lengths, trace.FixedRate(0), 9)
	sys := func() (sched.Scheduler, engine.KVPolicy, error) {
		s, kv, err := engine.NewSystem(engine.SystemTokenFlow, core.DefaultConfig())
		kv.ChunkedWriting = false
		return s, kv, err
	}
	for _, tc := range cases {
		cfg := cluster.Config{Replicas: 1, Policy: router.NewRoundRobin(), MaxSimTime: tc.maxSim}
		if tc.crashAt >= 0 {
			cfg.Chaos = &chaos.Spec{Faults: []chaos.Fault{crashFault(0, tc.crashAt)}}
		}
		cl, err := cluster.New(cfg, cluster.Engines([]cluster.Deployment{dep}, sys))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if int64(res.SimEnd) != tc.simEnd || int64(res.Makespan) != tc.makespan || res.TimedOut != tc.timedOut {
			t.Errorf("%s: SimEnd %d, makespan %d, timed out %v; want %d, %d, %v", tc.name,
				int64(res.SimEnd), int64(res.Makespan), res.TimedOut, tc.simEnd, tc.makespan, tc.timedOut)
		}
	}
}
