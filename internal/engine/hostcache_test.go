package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// pressureWorkload overcommits the prefix-pin budget: many sessions pin
// large contexts in a first wave, forcing LRU pin evictions, then every
// session returns with an extending prompt. With the host-tier cache the
// evicted sessions reload their prefix over h2d; without it they recompute.
func pressureWorkload(sessions int) trace.Workload {
	w := trace.Workload{Name: "kv-pressure"}
	for s := 1; s <= sessions; s++ {
		w.Items = append(w.Items, trace.Item{
			Arrival:   simclock.FromSeconds(0.5 * float64(s)),
			PromptLen: 2000, OutputLen: 128, Rate: 20, Session: s, Turn: 1,
		})
	}
	for s := 1; s <= sessions; s++ {
		w.Items = append(w.Items, trace.Item{
			Arrival:   simclock.FromSeconds(80 + 0.5*float64(s)),
			PromptLen: 2528, OutputLen: 128, Rate: 20, Session: s, Turn: 2,
		})
	}
	return w
}

func runHostCache(t *testing.T, ep *fabric.Endpoint, hostCache bool, w trace.Workload) *engine.Result {
	t.Helper()
	kv := engine.TokenFlowKVPolicy()
	kv.HostCache = hostCache
	e, err := engine.NewStandalone(engine.Config{
		GPU:         gpu.RTX4090,
		Model:       model.Llama3_8B,
		MemFraction: 0.9,
		Scheduler:   core.MustNew(core.DefaultConfig()),
		KV:          kv,
		Fabric:      ep,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Drive(e, w, 0)
	if res.TimedOut || res.Report.Finished != w.Len() {
		t.Fatalf("finished %d/%d (timed out %v)", res.Report.Finished, w.Len(), res.TimedOut)
	}
	return res
}

// TestHostReloadBeatsRecomputeUnderPressure is the host-tier cache's
// acceptance claim: under a KV-pressure session workload whose pins are
// evicted between turns, reloading the host mirror over h2d beats
// recomputing the prefix on P99 TTFT.
func TestHostReloadBeatsRecomputeUnderPressure(t *testing.T) {
	w := pressureWorkload(24)
	on := runHostCache(t, nil, true, w)
	off := runHostCache(t, nil, false, w)

	if off.KV.PrefixEvictions == 0 {
		t.Fatal("workload exerts no pin pressure; the scenario is vacuous")
	}
	if on.KV.HostReloads == 0 {
		t.Fatal("host cache produced no reloads")
	}
	if on.KV.HostReloadTokens == 0 || on.KV.BytesReloaded == 0 {
		t.Errorf("reload accounting empty: %+v", on.KV)
	}
	if off.KV.HostReloads != 0 || off.KV.HostMirroredPages != 0 {
		t.Errorf("disabled cache recorded reloads/mirrors: %+v", off.KV)
	}
	if on.Report.P99TTFT >= off.Report.P99TTFT {
		t.Errorf("host-reload P99 TTFT %v should beat recompute %v",
			on.Report.P99TTFT, off.Report.P99TTFT)
	}
}

// TestHostReloadFallsBackOnStarvedLink: with the h2d link starved to
// 1 MB/s, the measured-backlog break-even must judge every reload slower
// than recompute and fall back — no reloads, counted fallbacks, and the
// run still completes.
func TestHostReloadFallsBackOnStarvedLink(t *testing.T) {
	w := pressureWorkload(24)
	// Asymmetric host pair: evictions drain at full PCIe speed (so mirrors
	// complete promptly) but reloads would crawl.
	ep := fabric.NewSingleHost(gpu.RTX4090.PCIeBytesPerSec(), 1e6)
	res := runHostCache(t, ep, true, w)

	if res.KV.HostReloads != 0 {
		t.Errorf("starved link still reloaded %d times", res.KV.HostReloads)
	}
	if res.HostReloadFallbacks == 0 {
		t.Error("no fallbacks counted: the break-even never fired")
	}
	if res.KV.HostMirroredPages == 0 {
		t.Error("mirrors should still exist (they are just not worth reading)")
	}
}
