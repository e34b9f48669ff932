package kvcache

import (
	"testing"

	"repro/internal/simclock"
)

// prefixRig is a rig with a 64-page pool and a 32-page prefix budget.
func prefixRig(t testing.TB) *testRig {
	cfg := fullConfig()
	cfg.PrefixPages = 32
	return newRig(t, cfg)
}

// finishAs allocates a request, marks its context computed, and converts
// it into a prefix pin for the session.
func finishAs(t *testing.T, rig *testRig, id, session, tokens int, now simclock.Time) {
	t.Helper()
	r := newReq(id, tokens, 1)
	r.PrefilledTokens = tokens
	if err := rig.m.AllocateResident(r, tokens); err != nil {
		t.Fatal(err)
	}
	rig.m.ReleaseAsPrefix(r, session, now)
}

func TestReleaseAsPrefixChargesPool(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 160, 0) // 10 pages
	if got := rig.m.PinnedPrefixPages(); got != 10 {
		t.Fatalf("pinned pages = %d, want 10", got)
	}
	if got := rig.m.UsedPages(); got != 10 {
		t.Fatalf("used pages = %d, want 10 (pin stays charged)", got)
	}
	if got := rig.m.PeekPrefix(7); got != 160 {
		t.Errorf("peek = %d, want 160", got)
	}
	if rig.m.PeekPrefix(8) != 0 {
		t.Error("unknown session should miss")
	}
}

func TestPrefixAdoptionFoldsPinIntoAllocation(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 160, 0) // 10 pages pinned
	free := rig.m.FreePages()      // 54

	// Next turn: 256-token prompt, 160 cached. Admission adopts the pin.
	r := newReq(2, 256, 8)
	if !rig.m.CanAdmit(256, 7) {
		t.Fatal("should fit with adoption")
	}
	if err := rig.m.AllocateWithPrefix(r, 256, 7); err != nil {
		t.Fatal(err)
	}
	// 16 pages total, 10 adopted: only 6 newly charged.
	if got := free - rig.m.FreePages(); got != 6 {
		t.Errorf("adoption charged %d new pages, want 6", got)
	}
	if rig.m.PinnedPrefixPages() != 0 {
		t.Error("adopted pin should leave the pinned total")
	}
	if rig.m.PeekPrefix(7) != 0 {
		t.Error("adopted pin should be gone")
	}
	if s := rig.m.Stats(); s.PrefixAdoptions != 1 {
		t.Errorf("adoptions = %d, want 1", s.PrefixAdoptions)
	}
}

func TestLargerContextSupersedesPin(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	finishAs(t, rig, 2, 7, 320, 0) // 20 pages supersede the 10
	if got := rig.m.PeekPrefix(7); got != 320 {
		t.Errorf("peek = %d, want 320", got)
	}
	if got := rig.m.PinnedPrefixPages(); got != 20 {
		t.Errorf("pinned pages = %d, want 20", got)
	}
	if got := rig.m.UsedPages(); got != 20 {
		t.Errorf("used pages = %d, want 20 (old pin freed)", got)
	}
	// A smaller, late-finishing turn never shrinks the pin.
	finishAs(t, rig, 3, 7, 200, 0)
	if got := rig.m.PeekPrefix(7); got != 320 {
		t.Errorf("peek after late smaller finish = %d, want 320", got)
	}
	if got := rig.m.UsedPages(); got != 20 {
		t.Errorf("used pages = %d, want 20", got)
	}
}

func TestPinBudgetEvictsLRU(t *testing.T) {
	rig := prefixRig(t)                                  // 32-page prefix budget
	finishAs(t, rig, 1, 1, 240, 0)                       // 15 pages
	finishAs(t, rig, 2, 2, 240, 0)                       // 30 pinned
	rig.m.TakePrefix(1)                                  // session 2 becomes LRU
	finishAs(t, rig, 3, 3, 240, simclock.FromSeconds(1)) // 45 > 32: evict 2
	if rig.m.PeekPrefix(2) != 0 {
		t.Error("session 2 should be evicted as LRU")
	}
	if rig.m.PeekPrefix(1) != 240 || rig.m.PeekPrefix(3) != 240 {
		t.Error("sessions 1 and 3 should survive")
	}
	if got := rig.m.PinnedPrefixPages(); got != 30 {
		t.Errorf("pinned pages = %d, want 30", got)
	}
	if s := rig.m.Stats(); s.PrefixEvictions != 1 {
		t.Errorf("evictions = %d, want 1", s.PrefixEvictions)
	}
}

func TestOversizedContextNotPinned(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 33*16, 0) // 33 pages > 32 budget
	if rig.m.PeekPrefix(7) != 0 || rig.m.PinnedPrefixPages() != 0 {
		t.Error("contexts beyond the budget must not pin")
	}
	if rig.m.UsedPages() != 0 {
		t.Error("discarded context must free its pages")
	}
}

// TestEvictedPinDirtyPagesDrain: a pin whose pages were never synced to
// host frees nothing at eviction; its pages drain over the d2h link and
// free when the transfer completes, firing PinDrained.
func TestEvictedPinDirtyPagesDrain(t *testing.T) {
	cfg := fullConfig()
	cfg.WriteThrough = false // every page stays dirty
	cfg.PrefixPages = 32
	rig := newRig(t, cfg)
	drained := 0
	rig.m.cb.PinDrained = func(now simclock.Time) { drained++ }

	finishAs(t, rig, 1, 7, 160, 0) // 10 pages, all dirty
	if got := rig.m.ReclaimPrefixPages(10, 0, 0); got != 0 {
		t.Fatalf("dirty pin freed %d pages immediately, want 0", got)
	}
	if rig.m.PeekPrefix(7) != 0 {
		t.Fatal("pin should be evicted")
	}
	if rig.m.FreePages() != 54 {
		t.Fatalf("free = %d before drain, want 54", rig.m.FreePages())
	}
	for rig.clock.Step() {
	}
	if rig.m.FreePages() != 64 {
		t.Errorf("free = %d after drain, want 64", rig.m.FreePages())
	}
	if drained != 1 {
		t.Errorf("PinDrained fired %d times, want 1", drained)
	}
	if s := rig.m.Stats(); s.PrefixBytesDrained != 10*rig.m.PageBytes() {
		t.Errorf("drained bytes = %d", s.PrefixBytesDrained)
	}
}

// TestNoOffloadPinEvictsInstantly: without offload there is no host tier
// to mirror into, so an evicted pin discards its pages immediately — the
// same rule request preemption follows — instead of booking a drain.
func TestNoOffloadPinEvictsInstantly(t *testing.T) {
	cfg := Config{PrefixPages: 32} // all policies off (baseline)
	rig := newRig(t, cfg)
	finishAs(t, rig, 1, 7, 160, 0) // 10 pages, all dirty, no host tier
	if got := rig.m.ReclaimPrefixPages(10, 0, 0); got != 10 {
		t.Fatalf("no-offload eviction freed %d pages immediately, want 10", got)
	}
	if rig.m.FreePages() != 64 {
		t.Errorf("free = %d, want 64", rig.m.FreePages())
	}
	if s := rig.m.Stats(); s.PrefixBytesDrained != 0 {
		t.Errorf("no-offload eviction drained %d bytes, want 0", s.PrefixBytesDrained)
	}
}

// TestReclaimStopsAtCoveredNeed: reclaiming counts draining pages toward
// the need, so one small shortfall does not flush the entire pin set.
func TestReclaimStopsAtCoveredNeed(t *testing.T) {
	cfg := fullConfig()
	cfg.WriteThrough = false // pins stay dirty: eviction drains, frees later
	cfg.PrefixPages = 40
	rig := newRig(t, cfg)
	finishAs(t, rig, 1, 1, 160, 0) // 10 pages each
	finishAs(t, rig, 2, 2, 160, 0)
	finishAs(t, rig, 3, 3, 160, 0)
	if got := rig.m.ReclaimPrefixPages(1, 0, 0); got != 0 {
		t.Fatalf("dirty reclaim freed %d immediately, want 0", got)
	}
	// Only the LRU pin (session 1) should have been sacrificed.
	if rig.m.PeekPrefix(1) != 0 {
		t.Error("LRU pin should be evicted")
	}
	if rig.m.PeekPrefix(2) == 0 || rig.m.PeekPrefix(3) == 0 {
		t.Error("one draining pin covers the need; the rest must survive")
	}
}

// TestSyncedPinEvictsFree: under write-through a fully synced pin frees
// its whole footprint immediately at eviction.
func TestSyncedPinEvictsFree(t *testing.T) {
	rig := prefixRig(t)
	r := newReq(1, 160, 1)
	r.PrefilledTokens = 160
	if err := rig.m.AllocateResident(r, 160); err != nil {
		t.Fatal(err)
	}
	// Let background sync mirror everything.
	rig.m.BackgroundSync(0, simclock.Duration(10)) // generous interval
	for rig.clock.Step() {
	}
	rig.clock.RunUntil(rig.m.d2h.BusyUntil()) // the sync landings are not events
	rig.m.ReleaseAsPrefix(r, 7, rig.clock.Now())
	now := rig.clock.Now()
	if got := rig.m.ReclaimPrefixPages(10, now, 0); got != 10 {
		t.Fatalf("synced pin freed %d pages immediately, want 10", got)
	}
	if rig.m.FreePages() != 64 {
		t.Errorf("free = %d, want 64", rig.m.FreePages())
	}
}

func TestMigrateOutAndInstall(t *testing.T) {
	donor := prefixRig(t)
	target := prefixRig(t)
	finishAs(t, donor, 1, 7, 160, 0)

	tokens, bytes, ok := donor.m.BeginMigrateOut(7)
	if !ok || tokens != 160 || bytes != 10*donor.m.PageBytes() {
		t.Fatalf("BeginMigrateOut = (%d, %d, %v)", tokens, bytes, ok)
	}
	// While migrating, the pin neither hits nor evicts nor re-migrates.
	if donor.m.PeekPrefix(7) != 0 || donor.m.TakePrefix(7) != 0 {
		t.Error("migrating pin must not hit")
	}
	if got := donor.m.ReclaimPrefixPages(10, 0, 0); got != 0 {
		t.Error("migrating pin must not evict")
	}
	if _, _, again := donor.m.BeginMigrateOut(7); again {
		t.Error("double migrate-out must fail")
	}
	if donor.m.UsedPages() != 10 {
		t.Error("pages stay charged during the wire transfer")
	}

	donor.m.CompleteMigrateOut(7)
	if donor.m.UsedPages() != 0 || donor.m.PinnedPrefixPages() != 0 {
		t.Error("migrated-out pages should free on completion")
	}

	if !target.m.InstallPrefix(7, tokens, 0) {
		t.Fatal("install should succeed on an empty pool")
	}
	if target.m.PeekPrefix(7) != 160 || target.m.PinnedPrefixPages() != 10 {
		t.Error("installed pin should be pinned and visible")
	}
	s := donor.m.Stats()
	if s.MigratedOutTokens != 160 {
		t.Errorf("migrated-out tokens = %d", s.MigratedOutTokens)
	}
	if ts := target.m.Stats(); ts.MigratedInTokens != 160 {
		t.Errorf("migrated-in tokens = %d", ts.MigratedInTokens)
	}
}

func TestInstallPrefixDropsWhenNoRoom(t *testing.T) {
	rig := prefixRig(t)
	// Fill the pool with a live request: 60 of 64 pages.
	r := newReq(1, 60*16, 1)
	if err := rig.m.AllocateResident(r, 60*16); err != nil {
		t.Fatal(err)
	}
	if rig.m.InstallPrefix(7, 160, 0) {
		t.Error("install must drop when live requests hold the pool")
	}
	if s := rig.m.Stats(); s.MigrationDrops != 1 {
		t.Errorf("drops = %d, want 1", s.MigrationDrops)
	}
	if rig.m.UsedPages() != 60 {
		t.Error("dropped install must not leak pages")
	}
}

// TestInstallEvictsColderPins: installing a migrated prefix reclaims LRU
// pins rather than dropping, when their synced pages free enough room
// immediately.
func TestInstallEvictsColderPins(t *testing.T) {
	cfg := fullConfig()
	cfg.GPUPages = 32
	cfg.PrefixPages = 32
	rig := newRig(t, cfg)
	// Pin 30 of 32 pages, fully host-mirrored so eviction frees instantly.
	r := newReq(1, 30*16, 1)
	r.PrefilledTokens = 30 * 16
	if err := rig.m.AllocateResident(r, 30*16); err != nil {
		t.Fatal(err)
	}
	rig.m.BackgroundSync(0, simclock.Duration(10))
	for rig.clock.Step() {
	}
	rig.clock.RunUntil(rig.m.d2h.BusyUntil()) // the sync landings are not events
	rig.m.ReleaseAsPrefix(r, 1, rig.clock.Now())
	if !rig.m.InstallPrefix(2, 160, rig.clock.Now()) {
		t.Fatal("install should evict the colder pin")
	}
	if rig.m.PeekPrefix(1) != 0 {
		t.Error("cold pin should be evicted")
	}
	if rig.m.PeekPrefix(2) != 160 {
		t.Error("migrated pin should be installed")
	}
}

// TestPoolNeverOvercommitsUnderPrefixChurn drives random pin/adopt/evict
// traffic and asserts the pool accounting never goes negative or beyond
// capacity.
func TestPoolNeverOvercommitsUnderPrefixChurn(t *testing.T) {
	rig := prefixRig(t)
	check := func() {
		if rig.m.FreePages() < 0 || rig.m.UsedPages() > rig.m.TotalPages() {
			t.Fatalf("pool overcommitted: free=%d used=%d total=%d",
				rig.m.FreePages(), rig.m.UsedPages(), rig.m.TotalPages())
		}
		if rig.m.PinnedPrefixPages() > rig.m.Config().PrefixPages {
			t.Fatalf("pinned %d beyond budget %d",
				rig.m.PinnedPrefixPages(), rig.m.Config().PrefixPages)
		}
	}
	id := 1
	for i := 0; i < 200; i++ {
		now := simclock.FromSeconds(float64(i))
		session := 1 + i%5
		tokens := 16 * (1 + i%20)
		if rig.m.CanAdmit(tokens, session) {
			r := newReq(id, tokens, 1)
			r.PrefilledTokens = tokens
			if err := rig.m.AllocateWithPrefix(r, tokens, session); err != nil {
				t.Fatal(err)
			}
			check()
			rig.m.ReleaseAsPrefix(r, session, now)
		} else {
			rig.m.ReclaimPrefixPages(rig.m.Pages(tokens), now, session)
		}
		check()
		id++
		for rig.clock.Step() {
		}
		check()
	}
}

func TestHottestPrefixesMRUOrder(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	finishAs(t, rig, 2, 8, 96, 0)
	finishAs(t, rig, 3, 9, 64, 0)
	// Touch session 7: it becomes MRU again.
	if rig.m.TakePrefix(7) != 160 {
		t.Fatal("take should hit")
	}

	got := rig.m.HottestPrefixes(nil, 2)
	if len(got) != 2 || got[0].Session != 7 || got[1].Session != 9 {
		t.Fatalf("top-2 = %+v, want sessions [7 9]", got)
	}
	if got[0].Tokens != 160 || got[0].Pages != 10 {
		t.Errorf("session 7 info = %+v, want 160 tokens / 10 pages", got[0])
	}

	all := rig.m.HottestPrefixes(nil, 0)
	if len(all) != 3 || all[2].Session != 8 {
		t.Fatalf("all pins = %+v, want [7 9 8]", all)
	}

	// A migrating pin is invisible: its pages are leaving the device.
	if _, _, ok := rig.m.BeginMigrateOut(9); !ok {
		t.Fatal("migrate-out should start")
	}
	if got := rig.m.HottestPrefixes(nil, 0); len(got) != 2 {
		t.Fatalf("migrating pin listed: %+v", got)
	}
}

// TestHottestPrefixesAllocs: listing into a warmed buffer allocates
// nothing, and the list appends after what the buffer holds.
func TestHottestPrefixesAllocs(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	finishAs(t, rig, 2, 8, 96, 0)
	buf := rig.m.HottestPrefixes(nil, 0)
	if allocs := testing.AllocsPerRun(100, func() { buf = rig.m.HottestPrefixes(buf[:0], 0) }); allocs != 0 {
		t.Errorf("a warmed HottestPrefixes made %v allocations, want 0", allocs)
	}
	got := rig.m.HottestPrefixes(buf[:1], 1)
	if len(got) != 2 || got[0].Session != 8 || got[1].Session != 8 {
		t.Errorf("appending the top-1 after [8] = %+v, want sessions [8 8]", got)
	}
}

// TestServablePins: the pin count agrees with the length of the full
// HottestPrefixes list through pinning, migration staking, its abort and
// completion, and eviction.
func TestServablePins(t *testing.T) {
	rig := prefixRig(t)
	steps := []struct {
		name string
		do   func()
		want int
	}{
		{"empty", func() {}, 0},
		{"one pin", func() { finishAs(t, rig, 1, 7, 160, 0) }, 1},
		{"two pins", func() { finishAs(t, rig, 2, 8, 96, 0) }, 2},
		{"one staked", func() { rig.m.BeginMigrateOut(8) }, 1},
		{"both staked", func() { rig.m.BeginMigrateOut(7) }, 0},
		{"stake aborted", func() { rig.m.AbortMigrateOut(7) }, 1},
		{"migrated out", func() { rig.m.CompleteMigrateOut(8) }, 1},
		{"dropped", func() { rig.m.DropPrefix(7, 0) }, 0},
	}
	for _, s := range steps {
		s.do()
		got, list := rig.m.ServablePins(), len(rig.m.HottestPrefixes(nil, 0))
		if got != s.want || got != list {
			t.Errorf("%s: ServablePins = %d, HottestPrefixes lists %d; want %d", s.name, got, list, s.want)
		}
	}
}

func TestDropPrefixFreesPin(t *testing.T) {
	rig := prefixRig(t)
	finishAs(t, rig, 1, 7, 160, 0)
	free := rig.m.FreePages()
	if !rig.m.DropPrefix(7, 0) {
		t.Fatal("drop should find the pin")
	}
	rig.clock.Run() // drain any dirty pages
	if got := rig.m.FreePages() - free; got != 10 {
		t.Errorf("drop freed %d pages, want 10", got)
	}
	if rig.m.PeekPrefix(7) != 0 || rig.m.PinnedPrefixPages() != 0 {
		t.Error("pin should be gone")
	}
	if rig.m.DropPrefix(7, 0) {
		t.Error("second drop should miss")
	}
	if s := rig.m.Stats(); s.PrefixEvictions != 1 {
		t.Errorf("evictions = %d, want 1", s.PrefixEvictions)
	}
}
