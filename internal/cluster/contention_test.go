package cluster

// White-box transfer-contention tests: pre-warm and drain hand-off are
// background traffic, but they ride the same fabric links as everything
// else — on a shared NIC they serialize, and a pin that serializes behind
// another transfer can land after the warm-up window it was meant to beat.

import (
	"testing"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
)

// testPool is the white-box tests' pool: every replica an RTX-4090 /
// Llama3-8B at mem-frac 0.9 running TokenFlow from the engine's system
// table, with the host-tier prefix cache on in testPoolHost (the repin
// tests need the host mirrors).
var (
	testPool     = Engines(rtx4090, tokenFlowSystem(false))
	testPoolHost = Engines(rtx4090, tokenFlowSystem(true))
	rtx4090      = []Deployment{{GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.9}}
)

func tokenFlowSystem(hostCache bool) func() (sched.Scheduler, engine.KVPolicy, error) {
	return func() (sched.Scheduler, engine.KVPolicy, error) {
		s, kv, err := engine.NewSystem(engine.SystemTokenFlow, core.DefaultConfig())
		kv.HostCache = hostCache
		return s, kv, err
	}
}

// contentionCluster builds a 3-replica cluster on the given topology with
// two 1024-token pins installed on replica 0, then books a pre-warm
// (0 → 1) and a drain hand-off (0 → 2) at t=0.
func contentionCluster(t *testing.T, spec *fabric.Spec) *Cluster {
	t.Helper()
	c, err := New(Config{
		Replicas: 3,
		Policy:   router.NewRoundRobin(),
		Migrate:  true,
		Topology: spec,
		Autoscale: &AutoscaleConfig{
			Policy: autoscale.NewQueuePressure(),
			Min:    3, Max: 3,
		},
	}, testPool)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		if !c.replicas[0].kv.InstallPrefix(s, 1024, 0) {
			t.Fatalf("installing pin %d failed", s)
		}
	}
	if !c.migratePin(c.replicas[0], c.replicas[1], 1, fabric.ClassPrewarm, 0,
		&c.ctr.Prewarms, &c.ctr.PrewarmedTokens, nil, nil) {
		t.Fatal("prewarm migration did not start")
	}
	if !c.migratePin(c.replicas[0], c.replicas[2], 2, fabric.ClassDrain, 0,
		&c.ctr.DrainMigrations, nil, nil, nil) {
		t.Fatal("drain migration did not start")
	}
	return c
}

// TestPrewarmDrainShareUplinkExtendWarmup: a pre-warm (replica 0 → 1) and
// a drain hand-off (replica 0 → 2) booked at the same instant serialize on
// replica 0's egress NIC, pushing the second pin's arrival past a warm-up
// window a dedicated pair link comfortably beats — the warm-up-stall
// window is extended by exactly the contention. Under the full mesh the
// two transfers run in parallel and both land within the window.
func TestPrewarmDrainShareUplinkExtendWarmup(t *testing.T) {
	const gbps = 0.5
	shared := contentionCluster(t, &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: gbps})
	mesh := contentionCluster(t, &fabric.Spec{Kind: fabric.FullMesh, LinkGBps: gbps})

	// Recover the wire time from the mesh booking itself: each dedicated
	// pair link holds exactly one transfer.
	oneWire := mesh.fab.Topology().Path(0, 1)[0].BusyUntil()
	if oneWire <= 0 {
		t.Fatal("mesh pair link idle")
	}
	warmup := oneWire + oneWire/2 // one wire < warmup < two wires

	// Shared NIC: both transfers cross egress-0 and serialize.
	egress := shared.fab.Topology().Path(0, 2)[0]
	if got := egress.BusyUntil(); got != 2*oneWire {
		t.Errorf("shared egress drains at %v, want serialized 2×wire %v", got, 2*oneWire)
	}
	if got := egress.BusyUntil(); got <= warmup {
		t.Errorf("serialized hand-off %v should overrun the %v warm-up window", got, warmup)
	}

	// Full mesh: disjoint pair links, both inside the window.
	for _, to := range []int{1, 2} {
		if done := mesh.fab.Topology().Path(0, to)[0].BusyUntil(); done != oneWire || done >= warmup {
			t.Errorf("mesh pair 0→%d drains at %v, want one wire %v inside window %v",
				to, done, oneWire, warmup)
		}
	}

	// End to end: the serialized pins still both arrive, and the ledger
	// carries one transfer per class.
	shared.shards[0].clock.Run()
	if shared.replicas[1].kv.PeekPrefix(1) != 1024 ||
		shared.replicas[2].kv.PeekPrefix(2) != 1024 {
		t.Error("pins did not land on their targets")
	}
	stats := map[fabric.Class]fabric.ClassStats{}
	for _, cs := range shared.fab.ClassStats() {
		stats[cs.Class] = cs
	}
	if stats[fabric.ClassPrewarm].Transfers != 1 || stats[fabric.ClassDrain].Transfers != 1 {
		t.Errorf("class ledger %+v", stats)
	}
}
