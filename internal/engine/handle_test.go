package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
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
	"repro/internal/sched"
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
	tokenFlow := func() (sched.Scheduler, engine.KVPolicy) {
		return core.MustNew(core.DefaultConfig()), engine.TokenFlowKVPolicy()
	}
	sweepDecodes(t, func(int64) func() (sched.Scheduler, engine.KVPolicy) { return tokenFlow },
		func(id int, e *engine.Engine, r *request.Request, held kvcache.Handle) string {
			m := e.Mem()
			fresh := m.Handle(r)
			gotRes, gotPage := m.CheckGrowth(held)
			wantRes, wantPage := m.CheckGrowth(fresh)
			if gotRes != wantRes || gotPage != wantPage || (wantRes && held != fresh) {
				return fmt.Sprintf("replica %d request %d token %d: held handle says resident=%v needPage=%v, map %v %v",
					id, r.ID, r.Generated+1, gotRes, gotPage, wantRes, wantPage)
			}
			return ""
		})
}

// TestDecodeBatchReuse holds the decode batch the engine keeps while its
// running set is unchanged, and the context sum it advances by the tokens
// each iteration delivered, to a fresh walk of the running set: at the
// first decoded token of every iteration (CheckDecodeBatch), and over
// whole runs against the same sweep with the batch forgotten at every
// decoded token, which gives deep-equal results. Every system runs, so
// the baselines' instant discards fire EvictDone, and a nested kick that
// launches the next iteration, from inside the decode step.
func TestDecodeBatchReuse(t *testing.T) {
	systems := engine.Systems()
	system := func(seed int64) func() (sched.Scheduler, engine.KVPolicy) {
		return func() (sched.Scheduler, engine.KVPolicy) {
			s, kv, err := engine.NewSystem(systems[seed%int64(len(systems))], core.DefaultConfig())
			if err != nil {
				panic(err)
			}
			return s, kv
		}
	}
	kept := sweepDecodes(t, system, func(id int, e *engine.Engine, r *request.Request, _ kvcache.Handle) string {
		if err := engine.CheckDecodeBatch(e, r); err != nil {
			return fmt.Sprintf("replica %d: %v", id, err)
		}
		return ""
	})
	walked := sweepDecodes(t, system, func(_ int, e *engine.Engine, _ *request.Request, _ kvcache.Handle) string {
		engine.ForgetDecodeBatch(e)
		return ""
	})
	for i := range kept {
		if !reflect.DeepEqual(kept[i], walked[i]) {
			t.Fatalf("seed %d: the run keeping its decode batch differs from the one walking the running set", i)
		}
	}
}

// sweepDecodes runs seeded random cluster scenarios on a memory-tight
// device, with a crash in every multi-replica one — preemptions, loads,
// recompute resumes, prefix adoption, crash retries and migration
// included — and calls check at every decoded token with the engine, the
// request and the residency handle the engine holds for it. check
// reports a mismatch as a non-empty message; system builds each engine's
// scheduler and KV policy for a scenario seed. It returns each
// scenario's result.
func sweepDecodes(t *testing.T, system func(seed int64) func() (sched.Scheduler, engine.KVPolicy),
	check func(id int, e *engine.Engine, r *request.Request, held kvcache.Handle) string) []*cluster.Result {
	t.Helper()
	const scenarios = 24
	// Probes run on the shards' goroutines.
	var checked atomic.Int64
	var mismatch atomic.Pointer[string]
	var crashes, preemptions int64
	var results []*cluster.Result
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
		hostCache := rng.Intn(2) == 0
		build := system(seed)
		sc.Build = func(id int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
			s, kv := build()
			kv.HostCache = hostCache && kv.Offload
			e, err := engine.New(engine.Config{
				GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.72,
				Scheduler: s, KV: kv, Clock: clock, Fabric: ep,
			})
			if err != nil {
				return nil, err
			}
			engine.SetDecodeProbe(e, func(r *request.Request, held kvcache.Handle) {
				checked.Add(1)
				if msg := check(id, e, r, held); msg != "" {
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
		results = append(results, res)
	}
	if checked.Load() == 0 || crashes == 0 || preemptions == 0 {
		t.Errorf("sweep checked %d decoded tokens over %d crashes and %d preemptions; want all three nonzero",
			checked.Load(), crashes, preemptions)
	}
	t.Logf("%d decoded tokens checked over %d crashes and %d preemptions", checked.Load(), crashes, preemptions)
	return results
}
