package cluster

// White-box chaos recovery edge cases at the exact instants the
// machinery must get right: a crash or link flap landing while a pin
// transfer is on the wire, and the sole holder of a session's pin dying
// with and without a surviving host mirror. These drive the run's clock
// directly, one event at a time where a test probes mid-window, so the
// fault can be placed mid-transfer deterministically.

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// chaosTransferCluster builds a 3-replica cluster on a slow shared NIC
// (a 1024-token pin takes ~2.7s on the wire) with the given fault plan,
// installs a pin for session 1 on replica 0, and books one pin transfer
// 0 → target at t=0 so the scripted fault lands mid-flight.
func chaosTransferCluster(t *testing.T, spec *chaos.Spec, target int, class fabric.Class) *Cluster {
	t.Helper()
	c, err := New(Config{
		Replicas: 3,
		Policy:   router.NewRoundRobin(),
		Migrate:  true,
		Topology: &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 0.05},
		Chaos:    spec,
	}, testPool)
	if err != nil {
		t.Fatal(err)
	}
	if !c.replicas[0].kv.InstallPrefix(1, 1024, 0) {
		t.Fatal("installing pin failed")
	}
	var count int64
	if !c.migratePin(c.replicas[0], c.replicas[target], 1, class, 0, &count, nil, nil, nil) {
		t.Fatal("pin transfer did not start")
	}
	if len(c.chaos.flights) != 1 {
		t.Fatalf("flight registry has %d entries, want 1", len(c.chaos.flights))
	}
	c.scheduleChaos()
	return c
}

// TestChaosCrashAbortsDrainHandoff: the donor of a drain hand-off dies at
// t=1s while the pin is still on the wire. The transfer must tear down —
// completion cancelled, gating unwound — and the pin lands nowhere: the
// donor's copy died with it and the target's never arrived.
func TestChaosCrashAbortsDrainHandoff(t *testing.T) {
	c := chaosTransferCluster(t, &chaos.Spec{
		Faults: []chaos.Fault{{Kind: chaos.Crash, At: simclock.FromSeconds(1), Replica: 0}},
	}, 2, fabric.ClassDrain)
	c.shards[0].clock.Run()
	if !c.replicas[0].eng.Crashed() {
		t.Fatal("donor did not crash")
	}
	if c.ctr.Crashes != 1 || c.ctr.MigrationsAborted != 1 {
		t.Errorf("crashes=%d aborted=%d, want 1/1", c.ctr.Crashes, c.ctr.MigrationsAborted)
	}
	if len(c.chaos.flights) != 0 {
		t.Errorf("flight registry still holds %d entries", len(c.chaos.flights))
	}
	if got := c.replicas[2].kv.PeekPrefix(1); got != 0 {
		t.Errorf("aborted hand-off landed %d tokens on the target", got)
	}
	if c.migrationsInFlight != 0 {
		t.Errorf("migrationsInFlight=%d after abort", c.migrationsInFlight)
	}
}

// TestChaosLinkFlapAbortsMidMigration: the 0-1 pair goes dark at t=1s
// with a pre-warm transfer on the wire. The transfer aborts but the donor
// survives, so it un-stakes and keeps its pin; while the window is open
// new transfers across the pair are declined, and after recovery the
// link books again.
func TestChaosLinkFlapAbortsMidMigration(t *testing.T) {
	c := chaosTransferCluster(t, &chaos.Spec{
		Faults: []chaos.Fault{{Kind: chaos.LinkFlap, At: simclock.FromSeconds(1),
			From: 0, To: 1, Duration: simclock.Duration(10)}},
	}, 1, fabric.ClassPrewarm)

	// Step to the flap, then probe mid-window before recovery runs.
	for len(c.chaos.linkDown) == 0 && c.shards[0].clock.Step() {
	}
	now := c.clock.Now()
	if c.ctr.LinkFlaps != 1 || c.ctr.MigrationsAborted != 1 {
		t.Fatalf("flaps=%d aborted=%d, want 1/1", c.ctr.LinkFlaps, c.ctr.MigrationsAborted)
	}
	if c.linkUp(0, 1, now) || c.linkUp(1, 0, now) {
		t.Error("downed pair reports up mid-window")
	}
	if got := c.replicas[0].kv.PeekPrefix(1); got != 1024 {
		t.Errorf("surviving donor lost its pin: %d tokens", got)
	}
	var count int64
	if c.migratePin(c.replicas[0], c.replicas[1], 1, fabric.ClassPrewarm, now, &count, nil, nil, nil) {
		t.Error("new transfer booked across a downed pair")
	}
	if c.linkUp(0, 2, now) {
		// Pairs not named by the flap stay usable.
	} else {
		t.Error("unrelated pair 0-2 reports down")
	}

	c.shards[0].clock.Run()
	if len(c.chaos.linkDown) != 0 {
		t.Error("link still down after recovery")
	}
	if !c.linkUp(0, 1, c.clock.Now()) {
		t.Error("recovered pair reports down")
	}
	if got := c.replicas[1].kv.PeekPrefix(1); got != 0 {
		t.Errorf("aborted pre-warm landed %d tokens on the target", got)
	}
}

// TestChaosSolePinHolderCrash: replica 0 is the only holder of session
// 7's pin. With a surviving host mirror on replica 1 the crash triggers
// a repin — the mirror restores the device copy over the replicate
// class. Without one, the pin is simply gone: no repin, no survivor copy.
func TestChaosSolePinHolderCrash(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mirror bool
	}{
		{"with-host-mirror", true},
		{"without-host-mirror", false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Replicas: 2,
				Policy:   router.NewRoundRobin(),
				Chaos: &chaos.Spec{
					Faults: []chaos.Fault{{Kind: chaos.Crash, At: simclock.FromSeconds(1), Replica: 0}},
				},
			}, testPoolHost)
			if err != nil {
				t.Fatal(err)
			}
			if !c.replicas[0].kv.InstallPrefix(7, 1024, 0) {
				t.Fatal("installing pin failed")
			}
			if tc.mirror {
				if !c.replicas[1].kv.AdoptMirror(7, 1024, 0) {
					t.Fatal("adopting host mirror failed")
				}
			}
			c.scheduleChaos()
			c.shards[0].clock.Run()
			if !c.replicas[0].eng.Crashed() {
				t.Fatal("replica 0 did not crash")
			}
			got := c.replicas[1].kv.PeekPrefix(7)
			if tc.mirror {
				if got != 1024 {
					t.Errorf("repin restored %d tokens on the survivor, want 1024", got)
				}
				if c.ctr.Replications != 1 || c.ctr.ReplicatedBytes == 0 {
					t.Errorf("repins=%d bytes=%d, want one repin with bytes",
						c.ctr.Replications, c.ctr.ReplicatedBytes)
				}
			} else {
				if got != 0 {
					t.Errorf("survivor conjured %d pinned tokens from nowhere", got)
				}
				if c.ctr.Replications != 0 {
					t.Errorf("repins=%d without any mirror", c.ctr.Replications)
				}
			}
			if c.chaos.replicationsInFlight != 0 {
				t.Errorf("replicationsInFlight=%d after drain", c.chaos.replicationsInFlight)
			}
		})
	}
}

// TestReplicateSkipsMirrorOverHostBudget: a pin larger than the backup's
// whole host budget is never copied — adoption would refuse it, so each
// redundancy tick would pay for the same copy again — while a pin that
// fits is copied once and then left alone.
func TestReplicateSkipsMirrorOverHostBudget(t *testing.T) {
	c, err := New(Config{
		Replicas: 2,
		Policy:   router.NewRoundRobin(),
		Chaos:    &chaos.Spec{Redundancy: 2},
	}, Engines(rtx4090, func() (sched.Scheduler, engine.KVPolicy, error) {
		s, kv, err := engine.NewSystem(engine.SystemTokenFlow, core.DefaultConfig())
		kv.HostCache, kv.HostCachePages = true, 16
		return s, kv, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := c.replicas[0].kv, c.replicas[1].kv
	if !src.InstallPrefix(7, 1024, 0) || !src.InstallPrefix(8, 128, 0) { // 64 and 8 pages
		t.Fatal("installing pins failed")
	}
	for tick := 0; tick < 4; tick++ {
		c.replicateTick(c.clock.Now())
		c.shards[0].clock.Run()
	}
	if c.ctr.Replications != 1 || dst.MirrorTokens(8) != 128 || dst.MirrorTokens(7) != 0 {
		t.Errorf("%d copies booked, backup mirrors %d and %d tokens; want 1 copy, 0 and 128",
			c.ctr.Replications, dst.MirrorTokens(7), dst.MirrorTokens(8))
	}
	if s := c.fab.ClassStats()[fabric.ClassReplicate]; s.Transfers != 1 {
		t.Errorf("%d replicate-class transfers, want 1", s.Transfers)
	}
}
