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

// TestLoadCompletionOutOfOrderPanics checks the load FIFO's order check.
func TestLoadCompletionOutOfOrderPanics(t *testing.T) {
	m, _ := quietManager(t, fullConfig())
	e := m.newEntry()
	m.bookLoad(e, 10)
	defer func() {
		if recover() == nil {
			t.Error("a load booked before the last one's completion did not panic")
		}
	}()
	m.bookLoad(e, 5)
}

// TestEvictionCycleAllocatesNothing holds a warmed release as prefix →
// LRU eviction → host mirror → budget drop cycle to zero allocations. The
// pins are fully synced, so an eviction books no drain.
func TestEvictionCycleAllocatesNothing(t *testing.T) {
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
		m.BackgroundSync(clock.Now(), time.Hour)
		clock.RunUntil(m.d2h.BusyUntil())
		m.ReleaseAsPrefix(r, turn, clock.Now()) // a new session each turn
	}
	cycle()
	cycle()
	evictions := m.Stats().PrefixEvictions
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("warmed eviction cycle allocated %v times, want 0", allocs)
	}
	if m.Stats().PrefixEvictions-evictions < runs || m.HostMirroredPages() == 0 {
		t.Fatalf("the cycle did not evict into the host tier: %d evictions, %d mirrored pages",
			m.Stats().PrefixEvictions-evictions, m.HostMirroredPages())
	}
}
