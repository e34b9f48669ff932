package engine_test

// internal/cluster drives every serving run, a single device being a
// one-replica cluster; engine.Drive is the reference single-device driver.
// These tests pin the cluster path against it and check what it rejects
// and how it times out.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// runOneReplica serves w on a one-replica round-robin cluster whose engine
// is cfg on the cluster's clock and fabric.
func runOneReplica(t *testing.T, cfg engine.Config, w trace.Workload, ccfg cluster.Config) (*cluster.Result, error) {
	t.Helper()
	ccfg.Replicas, ccfg.Policy = 1, router.NewRoundRobin()
	cl, err := cluster.New(ccfg, func(_ int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		cfg.Clock, cfg.Fabric = clock, ep
		return engine.New(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Run(w)
}

func tokenFlowConfig() engine.Config {
	return engine.Config{
		GPU:         gpu.RTX4090,
		Model:       model.Llama3_8B,
		MemFraction: 0.9,
		Scheduler:   core.MustNew(core.DefaultConfig()),
		KV:          engine.TokenFlowKVPolicy(),
	}
}

// TestSingleReplicaMatchesEngine: a one-replica round-robin cluster
// reproduces engine.Drive exactly — on the fast path
// and, with sampling on, on the routed path.
func TestSingleReplicaMatchesEngine(t *testing.T) {
	w := trace.Sessions("test-sessions", trace.SessionConfig{
		Sessions: 24,
		Duration: simclock.FromSeconds(60),
		Rates:    trace.FixedRate(20),
		Seed:     7,
	})
	for _, every := range []time.Duration{0, 250 * time.Millisecond} {
		res, err := runOneReplica(t, tokenFlowConfig(), w, cluster.Config{SampleEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.NewStandalone(tokenFlowConfig())
		if err != nil {
			t.Fatal(err)
		}
		solo := engine.Drive(e, w, every)
		if !reflect.DeepEqual(res.Report, solo.Report) {
			t.Errorf("every %v: 1-replica cluster report differs from the engine's:\ncluster: %+v\nengine:  %+v",
				every, res.Report, solo.Report)
		}
		if !reflect.DeepEqual(res.Samples, solo.Samples) {
			t.Errorf("every %v: %d cluster samples differ from the engine's %d", every, len(res.Samples), len(solo.Samples))
		}
		if every > 0 && len(solo.Samples) == 0 {
			t.Errorf("every %v: no samples recorded", every)
		}
		// The reference driver also records every request's timeline,
		// which the cluster does not keep; the rest must be equal.
		for _, r := range solo.Requests {
			if len(r.Timeline.Times) != r.Generated {
				t.Fatalf("every %v: request %d recorded %d token times for %d tokens",
					every, r.ID, len(r.Timeline.Times), r.Generated)
			}
			r.Timeline = nil
		}
		if !reflect.DeepEqual(res.Requests, solo.Requests) {
			t.Errorf("every %v: cluster requests differ from the engine's", every)
		}
		if res.Makespan != solo.Makespan || res.TimedOut || solo.TimedOut {
			t.Errorf("every %v: makespan %v (timed out %v) != %v (timed out %v)",
				every, res.Makespan, res.TimedOut, solo.Makespan, solo.TimedOut)
		}
	}
}

// TestRunRejectsBadWorkloads: an empty workload and a request larger than
// the device's KV pool fail upfront.
func TestRunRejectsBadWorkloads(t *testing.T) {
	cfg := func() engine.Config { return engine.SmallConfig(sched.NewSGLang(), engine.BaselineKVPolicy()) }
	if _, err := runOneReplica(t, cfg(), trace.Workload{}, cluster.Config{}); err == nil {
		t.Error("empty workload should fail")
	}
	huge := trace.Burst("b", 1, 0, trace.FixedLengths{Prompt: 5000, Output: 5000}, trace.FixedRate(20), 1)
	if _, err := runOneReplica(t, cfg(), huge, cluster.Config{}); err == nil {
		t.Error("oversized request should fail upfront")
	}
}

// Failure-mode coverage: an abandoned run (deadline hit) still tears down
// cleanly and reports honestly.
func TestTimedOutRunReportsPartialState(t *testing.T) {
	w := trace.Burst("b", 10, 0, trace.FixedLengths{Prompt: 256, Output: 512}, trace.FixedRate(10), 1)
	res, err := runOneReplica(t, engine.SmallConfig(sched.NewSGLang(), engine.BaselineKVPolicy()), w,
		cluster.Config{MaxSimTime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || !res.PerReplica[0].Result.TimedOut {
		t.Fatal("1s cap must time out")
	}
	if res.Report.Finished == res.Report.N {
		t.Error("timed-out run should leave unfinished requests")
	}
	for _, rm := range res.Report.Requests {
		if !rm.Finished && rm.Tokens == 0 && !rm.TTFTCensored {
			t.Error("unserved requests must be TTFT-censored")
		}
	}
	if res.SimEnd > time.Second {
		t.Errorf("run ended at %v, past its 1s deadline", res.SimEnd)
	}
}
