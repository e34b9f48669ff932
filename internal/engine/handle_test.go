package engine_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/simclock"
)

// TestResidencyHandleMatchesMapProbe holds the residency handle each
// engine keeps for a running request against a fresh probe of the KV
// manager's entries map, at every decoded token of seeded random cluster
// scenarios on a memory-tight device, with a crash in every multi-replica
// one — preemptions, loads, recompute resumes, prefix adoption, crash
// retries and migration included. The held handle must report exactly
// what the map reports, and while the request is resident it must be the
// handle the map gives now (same entry, same epoch).
func TestResidencyHandleMatchesMapProbe(t *testing.T) {
	const scenarios = 24
	// Probes run on the shards' goroutines.
	var checked atomic.Int64
	var mismatch atomic.Pointer[string]
	var crashes, preemptions int64
	for seed := int64(0); seed < scenarios; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := cluster.RandomScenario(rng)
		if n := sc.Config.Replicas; n >= 2 {
			// Every multi-replica scenario crashes one replica mid-run,
			// on top of any random fault plan it drew.
			if sc.Config.Chaos == nil {
				sc.Config.Chaos = &chaos.Spec{}
			}
			sc.Config.Chaos.Faults = append(sc.Config.Chaos.Faults, chaos.Fault{
				Kind: chaos.Crash, At: simclock.FromSeconds(2 + 10*rng.Float64()), Replica: rng.Intn(n),
			})
		}
		// The scenario's engine on a device whose KV pool holds a few
		// thousand tokens, so memory pressure preempts running requests.
		kv := engine.TokenFlowKVPolicy()
		kv.HostCache = rng.Intn(2) == 0
		sc.Build = func(id int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
			e, err := engine.New(engine.Config{
				GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.72,
				Scheduler: core.MustNew(core.DefaultConfig()), KV: kv, Clock: clock, Fabric: ep,
			})
			if err != nil {
				return nil, err
			}
			m := e.Mem()
			engine.SetDecodeProbe(e, func(r *request.Request, held kvcache.Handle) {
				checked.Add(1)
				fresh := m.Handle(r)
				gotRes, gotPage := m.CheckGrowth(held)
				wantRes, wantPage := m.CheckGrowth(fresh)
				if gotRes != wantRes || gotPage != wantPage || (wantRes && held != fresh) {
					msg := fmt.Sprintf("replica %d request %d token %d: held handle says resident=%v needPage=%v, map %v %v",
						id, r.ID, r.Generated+1, gotRes, gotPage, wantRes, wantPage)
					mismatch.CompareAndSwap(nil, &msg)
				}
			})
			return e, nil
		}
		cl, err := cluster.New(sc.Config, sc.Build)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := cl.Run(sc.Workload)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if msg := mismatch.Load(); msg != nil {
			t.Fatalf("seed %d: first mismatch: %s", seed, *msg)
		}
		crashes += res.Crashes
		preemptions += int64(res.Report.Preemptions)
	}
	if checked.Load() == 0 || crashes == 0 || preemptions == 0 {
		t.Errorf("sweep checked %d decoded tokens over %d crashes and %d preemptions; want all three nonzero",
			checked.Load(), crashes, preemptions)
	}
	t.Logf("%d decoded tokens checked over %d crashes and %d preemptions", checked.Load(), crashes, preemptions)
}
