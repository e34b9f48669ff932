package kvcache

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/request"
	"repro/internal/simclock"
)

// quietManager is a manager with no callbacks, so an allocation guard
// counts only the manager's own.
func quietManager(t *testing.T, cfg Config) (*Manager, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	cfg.BytesPerToken, cfg.GPUPages = 4096, 64
	m, err := New(cfg, clock, fabric.NewSingleHost(1e9, 1e9), Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	return m, clock
}

// TestRecycledEntryIgnoresStaleReferences reuses a retired entry for a
// new request: a handle taken before the retirement stays non-resident,
// and a sync landing booked for the old occupant credits nothing to the
// new one.
func TestRecycledEntryIgnoresStaleReferences(t *testing.T) {
	for _, release := range []string{"discard", "prefix"} {
		t.Run(release, func(t *testing.T) {
			cfg := fullConfig()
			cfg.PrefixPages = 32
			m, clock := quietManager(t, cfg)
			old := newReq(1, 160, 10)
			old.PrefilledTokens = 160
			if err := m.AllocateResident(old, 160); err != nil {
				t.Fatal(err)
			}
			h := m.Handle(old)
			m.BackgroundSync(0, time.Second) // books landings for old's pages
			if len(m.landings) == 0 {
				t.Fatal("no sync landing booked")
			}
			if release == "discard" {
				m.Discard(old)
			} else {
				m.ReleaseAsPrefix(old, 7, 0)
			}
			next := newReq(2, 64, 10)
			if err := m.AllocateResident(next, 64); err != nil {
				t.Fatal(err)
			}
			if m.Handle(next).e != h.e {
				t.Fatal("the retired entry was not reused")
			}
			if res, _ := m.CheckGrowth(h); res || m.PageRoom(h) != -1 || m.GrowOne(h) {
				t.Error("a handle taken before the entry's reuse reads resident")
			}
			clock.RunUntil(m.d2h.BusyUntil())
			m.settle()
			if e := m.entries[next.ID]; e.synced != 0 || e.inFlight != 0 {
				t.Errorf("the old occupant's landings credited the new one: synced %d, in flight %d", e.synced, e.inFlight)
			}
		})
	}
}

// TestPrefixLifecycleAllocatesNothing holds a warmed allocate → release
// as prefix → adopt by the next turn cycle to zero allocations.
func TestPrefixLifecycleAllocatesNothing(t *testing.T) {
	cfg := fullConfig()
	cfg.PrefixPages = 32
	m, _ := quietManager(t, cfg)
	reqs := [2]*request.Request{newReq(1, 160, 10), newReq(2, 160, 10)}
	for _, r := range reqs {
		r.PrefilledTokens = 160
	}
	turn := 0
	cycle := func() {
		r := reqs[turn%2]
		turn++
		if err := m.AllocateWithPrefix(r, 160, 7); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAsPrefix(r, 7, 0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warmed prefix cycle allocated %v times, want 0", allocs)
	}
	if m.Stats().PrefixAdoptions == 0 {
		t.Fatal("no turn adopted its pin")
	}
}

// TestLoadCycleAllocatesNothing holds a warmed preempt → StartLoad →
// completion cycle to zero allocations: loads complete through the
// manager's FIFO and one bound callback, not a closure per load.
func TestLoadCycleAllocatesNothing(t *testing.T) {
	m, clock := quietManager(t, fullConfig())
	r := newReq(1, 256, 10)
	r.PrefilledTokens = 256
	if err := m.AllocateResident(r, 256); err != nil {
		t.Fatal(err)
	}
	m.BackgroundSync(0, time.Second)
	clock.RunUntil(m.d2h.BusyUntil())
	cycle := func() {
		if _, err := m.Preempt(r, clock.Now()); err != nil {
			t.Fatal(err)
		}
		if _, err := m.StartLoad(r, clock.Now()); err != nil {
			t.Fatal(err)
		}
		clock.Run()
		if m.Residency(r) != ResGPU {
			t.Fatalf("residency after the load = %v", m.Residency(r))
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warmed load cycle allocated %v times, want 0", allocs)
	}
}

// TestDirtyEvictionCycleAllocatesNothing holds a warmed allocate →
// preempt with dirty pages → StartLoad → discard cycle to zero
// allocations: the eviction drains over the device-to-host link and
// completes through the manager's queue, like the load after it.
func TestDirtyEvictionCycleAllocatesNothing(t *testing.T) {
	m, clock := quietManager(t, fullConfig())
	r := newReq(1, 256, 10)
	r.PrefilledTokens = 256
	cycle := func() {
		if err := m.AllocateResident(r, 256); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Preempt(r, clock.Now()); err != nil {
			t.Fatal(err)
		}
		clock.Run()
		if m.Residency(r) != ResHost {
			t.Fatalf("residency after the eviction = %v", m.Residency(r))
		}
		if _, err := m.StartLoad(r, clock.Now()); err != nil {
			t.Fatal(err)
		}
		clock.Run()
		m.Discard(r)
	}
	cycle()
	evicted := m.Stats().BytesEvicted
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warmed dirty eviction cycle allocated %v times, want 0", allocs)
	}
	if m.Stats().BytesEvicted == evicted {
		t.Fatal("the cycle evicted no dirty pages")
	}
}

// TestLoadCompletionOutOfOrderPanics checks the completion queue's order
// check.
func TestLoadCompletionOutOfOrderPanics(t *testing.T) {
	m, _ := quietManager(t, fullConfig())
	e := m.newEntry()
	m.book(&m.h2dDone, completion{kind: doneLoad, e: e, done: 10})
	defer func() {
		if recover() == nil {
			t.Error("a load booked before the last one's completion did not panic")
		}
	}()
	m.book(&m.h2dDone, completion{kind: doneLoad, e: e, done: 5})
}

// TestEvictionCycleAllocatesNothing holds a warmed release as prefix →
// LRU eviction → host mirror → budget drop cycle to zero allocations,
// with fully synced pins (the eviction books nothing) and with dirty ones
// (the eviction books a drain on the device-to-host link, which completes
// through the manager's queue, not a closure).
func TestEvictionCycleAllocatesNothing(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		name := "synced"
		if dirty {
			name = "dirty"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fullConfig()
			cfg.PrefixPages, cfg.HostCache, cfg.HostCachePages = 20, true, 20
			m, clock := quietManager(t, cfg)
			const runs = 100
			reqs := make([]*request.Request, runs+3) // AllocsPerRun adds one warm-up run
			for i := range reqs {
				reqs[i] = newReq(i+1, 160, 10)
				reqs[i].PrefilledTokens = 160
			}
			turn := 0
			cycle := func() {
				r := reqs[turn]
				turn++
				if err := m.AllocateResident(r, 160); err != nil {
					t.Fatal(err)
				}
				if !dirty {
					m.BackgroundSync(clock.Now(), time.Hour)
					clock.RunUntil(m.d2h.BusyUntil())
				}
				m.ReleaseAsPrefix(r, turn, clock.Now()) // a new session each turn
				clock.Run()                             // a dirty eviction's drain lands
			}
			cycle()
			cycle()
			before := m.Stats()
			if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
				t.Errorf("warmed eviction cycle allocated %v times, want 0", allocs)
			}
			after := m.Stats()
			if after.PrefixEvictions-before.PrefixEvictions < runs || m.HostMirroredPages() == 0 {
				t.Fatalf("the cycle did not evict into the host tier: %d evictions, %d mirrored pages",
					after.PrefixEvictions-before.PrefixEvictions, m.HostMirroredPages())
			}
			if drained := after.PrefixBytesDrained > before.PrefixBytesDrained; drained != dirty {
				t.Fatalf("dirty pins %v, but drained bytes grew %v", dirty, drained)
			}
		})
	}
}

// TestReloadCycleAllocatesNothing holds a warmed host-mirror reload →
// install cycle to zero allocations. The prefix budget holds one pin, so
// each install evicts the other session's pin into the host tier, which
// the next cycle reloads; the install consumes its mirror under the host
// budget. The reload completes through the manager's queue.
func TestReloadCycleAllocatesNothing(t *testing.T) {
	cfg := fullConfig()
	cfg.PrefixPages, cfg.HostCache, cfg.HostCachePages = 10, true, 20
	m, clock := quietManager(t, cfg)
	for i, session := range []int{1, 2} {
		r := newReq(i+1, 160, 10)
		r.PrefilledTokens = 160
		if err := m.AllocateResident(r, 160); err != nil {
			t.Fatal(err)
		}
		m.BackgroundSync(clock.Now(), time.Hour)
		clock.RunUntil(m.d2h.BusyUntil())
		m.ReleaseAsPrefix(r, session, clock.Now())
	}
	session := 1 // evicted into the host tier by session 2's pin
	cycle := func() {
		if _, _, _, ok := m.ReloadMirror(session, fabric.ClassReload, clock.Now()); !ok {
			t.Fatalf("session %d: no mirror to reload", session)
		}
		clock.Run()
		if m.PeekPrefix(session) == 0 {
			t.Fatalf("session %d: the reload did not install a pin", session)
		}
		session = 3 - session
	}
	cycle()
	cycle()
	reloads := m.Stats().HostReloads
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warmed reload cycle allocated %v times, want 0", allocs)
	}
	if got := m.Stats().HostReloads - reloads; got < 100 {
		t.Fatalf("%d reloads installed, want at least 100", got)
	}
}
