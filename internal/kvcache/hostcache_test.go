package kvcache

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// hostRig is a prefix rig with the host-tier cache enabled.
func hostRig(t testing.TB) *testRig {
	cfg := fullConfig()
	cfg.PrefixPages = 32
	cfg.HostCache = true
	return newRig(t, cfg)
}

// TestEvictedPinLeavesHostMirror: evicting a pin under HostCache records a
// host mirror sized like the pin, surfaced in Stats, and the pool frees
// exactly as without the cache.
func TestEvictedPinLeavesHostMirror(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 7, 160, 0) // 10 pages
	rig.m.ReclaimPrefixPages(10, 0, 0)
	if rig.m.PeekPrefix(7) != 0 {
		t.Fatal("pin should be evicted")
	}
	rig.clock.Run()
	if rig.m.HostMirroredPages() != 10 {
		t.Errorf("mirrored pages = %d, want 10", rig.m.HostMirroredPages())
	}
	if got := rig.m.HostMirrorTokens(7); got != 160 {
		t.Errorf("mirror tokens = %d, want 160", got)
	}
	if s := rig.m.Stats(); s.HostMirroredPages != 10 {
		t.Errorf("stats mirrored pages = %d", s.HostMirroredPages)
	}
}

// TestReclaimNeverCountsHostMirroredPagesAsResident is the satellite
// invariant: host mirrors live in host memory only. After evictions turn
// pins into mirrors, the GPU pool must account to exactly its capacity
// with zero pinned pages — the mirrored pages appear nowhere in the
// device-side ledger, and the full pool is allocatable over them.
func TestReclaimNeverCountsHostMirroredPagesAsResident(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 1, 160, 0)
	finishAs(t, rig, 2, 2, 320, 0)
	rig.m.ReclaimPrefixPages(64, 0, 0) // flush every pin
	rig.clock.Run()

	if rig.m.HostMirroredPages() != 30 {
		t.Fatalf("mirrored pages = %d, want 30", rig.m.HostMirroredPages())
	}
	if rig.m.UsedPages() != 0 {
		t.Errorf("used pages = %d: host mirrors are being charged to the GPU pool", rig.m.UsedPages())
	}
	if rig.m.FreePages() != rig.m.TotalPages() {
		t.Errorf("free = %d of %d: mirrors must not hold pool pages",
			rig.m.FreePages(), rig.m.TotalPages())
	}
	if rig.m.PinnedPrefixPages() != 0 {
		t.Errorf("pinned pages = %d, want 0 after full reclaim", rig.m.PinnedPrefixPages())
	}
	if !rig.m.CanAllocate(rig.m.TotalPages() * 16) {
		t.Error("full pool must be allocatable while mirrors exist")
	}
	// And reclaiming again finds nothing: mirrors are not reclaimable GPU
	// residency.
	if got := rig.m.ReclaimPrefixPages(1, 0, 0); got != 0 {
		t.Errorf("reclaim freed %d pages from a pin-less pool", got)
	}
}

// TestHostReloadRematerializesPin: a reload books the h2d wire, lands as a
// fully synced pin, and the session hits again.
func TestHostReloadRematerializesPin(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	now := rig.clock.Now()

	est := rig.m.EstimateHostReload(7, now)
	if want := rig.h2d.TransferTime(10 * rig.m.PageBytes()); est != want {
		t.Errorf("reload estimate = %v, want wire %v", est, want)
	}
	done, tokens, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, now)
	if !ok || tokens != 160 {
		t.Fatalf("ReloadMirror = (%v, %d, %v)", done, tokens, ok)
	}
	if done != now.Add(est) {
		t.Errorf("reload done at %v, want %v", done, now.Add(est))
	}
	if rig.m.HostMirrorTokens(7) != 0 {
		t.Error("mirror mid-reload must not offer again")
	}
	if _, _, _, again := rig.m.ReloadMirror(7, fabric.ClassReload, now); again {
		t.Error("double reload must fail")
	}
	rig.clock.Run()
	if got := rig.m.TakePrefix(7); got != 160 {
		t.Errorf("post-reload hit = %d, want 160", got)
	}
	if rig.m.PinnedPrefixPages() != 10 {
		t.Errorf("pinned pages = %d, want 10", rig.m.PinnedPrefixPages())
	}
	// The reloaded pin is fully synced: evicting it again is free.
	if got := rig.m.ReclaimPrefixPages(10, rig.clock.Now(), 0); got != 10 {
		t.Errorf("re-eviction freed %d immediately, want 10 (synced)", got)
	}
	s := rig.m.Stats()
	if s.HostReloads != 1 || s.HostReloadTokens != 160 || s.BytesReloaded != 10*rig.m.PageBytes() {
		t.Errorf("reload stats = %+v", s)
	}
}

// TestHostReloadWaitsForDrain: a mirror still draining to host cannot be
// read back before the drain lands; the reload starts at readyAt.
func TestHostReloadWaitsForDrain(t *testing.T) {
	cfg := fullConfig()
	cfg.WriteThrough = false // pin stays fully dirty: eviction drains 10 pages
	cfg.PrefixPages = 32
	cfg.HostCache = true
	rig := newRig(t, cfg)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)

	drain := rig.d2h.BusyUntil()
	if drain == 0 {
		t.Fatal("eviction should be draining")
	}
	est := rig.m.EstimateHostReload(7, 0)
	wire := rig.h2d.TransferTime(10 * rig.m.PageBytes())
	if est != drain.Sub(0)+wire {
		t.Errorf("estimate = %v, want drain wait %v + wire %v", est, drain, wire)
	}
	done, _, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, 0)
	if !ok || done != drain.Add(wire) {
		t.Errorf("reload done at %v, want %v", done, drain.Add(wire))
	}
}

// TestHostReloadDropsWhenPoolFull: a reload landing on a pool held by live
// requests cannot install; the drop is counted and the mirror survives for
// a later attempt.
func TestHostReloadDropsWhenPoolFull(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()

	hog := newReq(2, 60*16, 1)
	if err := rig.m.AllocateResident(hog, 60*16); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, rig.clock.Now()); !ok {
		t.Fatal("reload should book")
	}
	rig.clock.Run()
	if rig.m.TakePrefix(7) != 0 {
		t.Error("dropped reload must not produce a pin")
	}
	if s := rig.m.Stats(); s.HostReloadDrops != 1 || s.HostReloads != 0 || s.HostReloadTokens != 0 {
		t.Errorf("dropped install must not count as a completed reload: %+v", s)
	}
	if rig.m.HostMirrorTokens(7) != 160 {
		t.Error("mirror should survive a dropped install")
	}
}

// TestLargerEvictionReplacesMirror: a bigger pin eviction supersedes the
// session's mirror; a smaller or equal one leaves it alone.
func TestLargerEvictionReplacesMirror(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	finishAs(t, rig, 2, 7, 320, rig.clock.Now()) // 20 pages, supersedes
	rig.m.ReclaimPrefixPages(20, rig.clock.Now(), 0)
	rig.clock.Run()
	if got := rig.m.HostMirrorTokens(7); got != 320 {
		t.Errorf("mirror tokens = %d, want 320", got)
	}
	if rig.m.HostMirroredPages() != 20 {
		t.Errorf("mirrored pages = %d, want 20 (old mirror replaced)", rig.m.HostMirroredPages())
	}
}

// TestNoMirrorWithoutHostCacheOrOffload: the mirror machinery is inert
// when disabled or when there is no host tier to mirror into.
func TestNoMirrorWithoutHostCacheOrOffload(t *testing.T) {
	plain := prefixRig(t) // HostCache off
	finishAs(t, plain, 1, 7, 160, 0)
	plain.m.ReclaimPrefixPages(10, 0, 0)
	plain.clock.Run()
	if plain.m.HostMirroredPages() != 0 || plain.m.HostMirrorTokens(7) != 0 {
		t.Error("mirrors recorded with HostCache off")
	}
	if _, _, _, ok := plain.m.ReloadMirror(7, fabric.ClassReload, 0); ok {
		t.Error("reload must fail with HostCache off")
	}

	cfg := Config{Policy: Policy{HostCache: true}, PrefixPages: 32} // no Offload
	rig := newRig(t, cfg)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	if rig.m.HostMirroredPages() != 0 {
		t.Error("no-offload eviction must not mirror")
	}
}

// budgetRig is a host rig with a HostCachePages budget: mirrors become a
// bounded spill buffer instead of the keep-forever tier.
func budgetRig(t testing.TB, pages int) *testRig {
	cfg := fullConfig()
	cfg.PrefixPages = 32
	cfg.HostCache = true
	cfg.HostCachePages = pages
	return newRig(t, cfg)
}

// TestHostMirrorBytesRiseAndFall: HostMirrorBytes — the quantity the
// telemetry series charts and the budget bounds — rises when an eviction
// mirrors a pin and falls back to zero when a budgeted reload consumes the
// mirror.
func TestHostMirrorBytesRiseAndFall(t *testing.T) {
	rig := budgetRig(t, 32)
	if got := rig.m.HostMirrorBytes(); got != 0 {
		t.Fatalf("fresh manager mirrors %d bytes", got)
	}
	finishAs(t, rig, 1, 7, 160, 0) // 10 pages
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	want := 10 * rig.m.PageBytes()
	if got := rig.m.HostMirrorBytes(); got != want {
		t.Fatalf("post-eviction mirror bytes = %d, want %d", got, want)
	}
	if s := rig.m.Stats(); s.HostMirrorBytes != want {
		t.Errorf("stats mirror bytes = %d, want %d", s.HostMirrorBytes, want)
	}
	if _, _, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, rig.clock.Now()); !ok {
		t.Fatal("reload should book")
	}
	rig.clock.Run()
	if got := rig.m.TakePrefix(7); got != 160 {
		t.Fatalf("post-reload hit = %d, want 160", got)
	}
	if got := rig.m.HostMirrorBytes(); got != 0 {
		t.Errorf("budgeted reload must consume the mirror; %d bytes remain", got)
	}
}

// TestHostBudgetDropsOldestMirror: overflowing the budget drops the
// oldest mirror, keeping the newest within bounds.
func TestHostBudgetDropsOldestMirror(t *testing.T) {
	rig := budgetRig(t, 25)
	finishAs(t, rig, 1, 7, 160, 0) // 10 pages
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	finishAs(t, rig, 2, 8, 320, rig.clock.Now()) // 20 pages: 30 > 25
	rig.m.ReclaimPrefixPages(20, rig.clock.Now(), 0)
	rig.clock.Run()
	if got := rig.m.HostMirrorTokens(7); got != 0 {
		t.Errorf("oldest mirror survived the budget: %d tokens", got)
	}
	if got := rig.m.HostMirrorTokens(8); got != 320 {
		t.Errorf("newest mirror = %d tokens, want 320", got)
	}
	if got := rig.m.HostMirroredPages(); got != 20 {
		t.Errorf("mirrored pages = %d, want 20", got)
	}
}

// TestUnbudgetedReloadKeepsMirror pins the historical semantics: with
// HostCachePages zero the mirror tier is unlimited and a successful reload
// leaves the mirror in place.
func TestUnbudgetedReloadKeepsMirror(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	if _, _, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, rig.clock.Now()); !ok {
		t.Fatal("reload should book")
	}
	rig.clock.Run()
	if got := rig.m.HostMirroredPages(); got != 10 {
		t.Errorf("unbudgeted reload must keep the mirror; %d pages remain", got)
	}
}

// TestHostMirrorObsEvents: the mirror lifecycle emits kv-mirror on
// eviction, kv-reload when the wire is booked, and kv-mirror-drop when the
// budgeted reload consumes the mirror.
func TestHostMirrorObsEvents(t *testing.T) {
	rig := budgetRig(t, 32)
	rec := obs.NewRecorder()
	rig.m.SetObs(rec, 3)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	if _, _, _, ok := rig.m.ReloadMirror(7, fabric.ClassReload, rig.clock.Now()); !ok {
		t.Fatal("reload should book")
	}
	rig.clock.Run()
	for _, ck := range []struct {
		kind obs.Kind
		want int
	}{
		{obs.KindKVMirror, 1},
		{obs.KindKVReload, 1},
		{obs.KindKVMirrorDrop, 1},
		{obs.KindKVEvict, 1},
	} {
		if got := rec.CountKind(ck.kind); got != ck.want {
			t.Errorf("%d events of kind %v, want %d", got, ck.kind, ck.want)
		}
	}
	for _, ev := range rec.Events() {
		if ev.Replica != 3 {
			t.Fatalf("event stamped replica %d, want 3", ev.Replica)
		}
	}
}

// TestEstimateHostReloadSeesBacklog: h2d queueing inflates the reload
// estimate — the measured-backlog half of the recompute-vs-reload
// break-even.
func TestEstimateHostReloadSeesBacklog(t *testing.T) {
	rig := hostRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	rig.m.ReclaimPrefixPages(10, 0, 0)
	rig.clock.Run()
	base := rig.m.EstimateHostReload(7, rig.clock.Now())
	rig.h2d.Enqueue(rig.clock.Now(), 50e6) // 50 ms of backlog
	withQueue := rig.m.EstimateHostReload(7, rig.clock.Now())
	if withQueue != base+50*time.Millisecond {
		t.Errorf("backlogged estimate = %v, want %v + 50ms", withQueue, base)
	}
}
