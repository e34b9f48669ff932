package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/request"
	"repro/internal/simclock"
)

// testRig bundles a manager with its clock and a single-host fabric at
// 1 GB/s each direction and 16-token pages of 64 KiB (4 KiB/token).
type testRig struct {
	clock      *simclock.Clock
	ep         *fabric.Endpoint
	d2h, h2d   *gpu.Link
	m          *Manager
	evictDone  []int
	loadDone   []int
	evictTimes map[int]simclock.Time
	loadTimes  map[int]simclock.Time
}

func newRig(t testing.TB, cfg Config) *testRig {
	t.Helper()
	ep := fabric.NewSingleHost(1e9, 1e9)
	rig := &testRig{
		clock:      simclock.New(),
		ep:         ep,
		d2h:        ep.D2H(),
		h2d:        ep.H2D(),
		evictTimes: make(map[int]simclock.Time),
		loadTimes:  make(map[int]simclock.Time),
	}
	if cfg.BytesPerToken == 0 {
		cfg.BytesPerToken = 4096
	}
	if cfg.GPUPages == 0 {
		cfg.GPUPages = 64
	}
	m, err := New(cfg, rig.clock, rig.ep, Callbacks{
		EvictDone: func(r *request.Request, now simclock.Time) {
			rig.evictDone = append(rig.evictDone, r.ID)
			rig.evictTimes[r.ID] = now
		},
		LoadDone: func(r *request.Request, now simclock.Time) {
			rig.loadDone = append(rig.loadDone, r.ID)
			rig.loadTimes[r.ID] = now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.m = m
	return rig
}

func fullConfig() Config {
	return Config{Policy: Policy{Offload: true, WriteThrough: true, ChunkedWriting: true,
		LoadEvictOverlap: true, PriorityWrites: true}}
}

func newReq(id, prompt, output int) *request.Request {
	return request.New(id, 0, prompt, output, 1e9) // effectively never consumes
}

func TestConfigValidate(t *testing.T) {
	good := Config{GPUPages: 8, BytesPerToken: 1024}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{GPUPages: 0, BytesPerToken: 1},
		{GPUPages: 8, BytesPerToken: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
}

func TestNewRejectsNils(t *testing.T) {
	cfg := Config{GPUPages: 8, BytesPerToken: 1024}
	if _, err := New(cfg, nil, nil, Callbacks{}); err == nil {
		t.Error("nil deps should error")
	}
	// An endpoint without attached host links is a wiring error too.
	topo, err := fabric.NewTopology(2, fabric.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	bare := fabric.NewScheduler(topo).Endpoint(0)
	if _, err := New(cfg, simclock.New(), bare, Callbacks{}); err == nil {
		t.Error("host-less endpoint should error")
	}
}

func TestPagesRounding(t *testing.T) {
	rig := newRig(t, fullConfig())
	cases := map[int]int{0: 0, 1: 1, 16: 1, 17: 2, 32: 2, 33: 3}
	for tokens, want := range cases {
		if got := rig.m.Pages(tokens); got != want {
			t.Errorf("Pages(%d) = %d, want %d", tokens, got, want)
		}
	}
	if rig.m.PageBytes() != 16*4096 {
		t.Errorf("page bytes = %d", rig.m.PageBytes())
	}
}

func TestAllocateAndGrow(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 32, 100)
	if err := rig.m.AllocateResident(r, 32); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 32
	if rig.m.UsedPages() != 2 || rig.m.FreePages() != 62 {
		t.Fatalf("used=%d free=%d", rig.m.UsedPages(), rig.m.FreePages())
	}
	if rig.m.Residency(r) != ResGPU {
		t.Fatalf("residency = %v", rig.m.Residency(r))
	}
	// Context is exactly 2 pages; appending token 33 needs growth.
	h := rig.m.Handle(r)
	if resident, needPage := rig.m.CheckGrowth(h); !resident || !needPage {
		t.Errorf("context at page boundary: resident=%v needPage=%v, want both", resident, needPage)
	}
	if !rig.m.GrowOne(h) {
		t.Fatal("growth with free pages should succeed")
	}
	if rig.m.UsedPages() != 3 {
		t.Errorf("used after grow = %d", rig.m.UsedPages())
	}
	// Mid-page growth is free.
	clock := simclock.New()
	r.DeliverTokens(clock, 0, 1)
	if resident, needPage := rig.m.CheckGrowth(h); !resident || needPage {
		t.Errorf("mid-page token: resident=%v needPage=%v, want resident without a page", resident, needPage)
	}
	// A request the manager does not hold is neither resident nor grown.
	stranger := rig.m.Handle(newReq(2, 16, 10))
	if resident, needPage := rig.m.CheckGrowth(stranger); resident || needPage {
		t.Errorf("unknown request: resident=%v needPage=%v", resident, needPage)
	}
	if rig.m.GrowOne(stranger) {
		t.Error("growing a non-resident request should fail")
	}
	// Discarding invalidates the handle.
	rig.m.Discard(r)
	if resident, _ := rig.m.CheckGrowth(h); resident || rig.m.GrowOne(h) {
		t.Error("a discarded request's handle still reports it resident")
	}
}

// TestCheckGrowthAllocatesNothing pins the decode step's per-token check
// on a resident request that stays inside its last page at zero
// allocations.
func TestCheckGrowthAllocatesNothing(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 20, 100)
	if err := rig.m.AllocateResident(r, 20); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 20
	h := rig.m.Handle(r)
	allocs := testing.AllocsPerRun(100, func() {
		if resident, needPage := rig.m.CheckGrowth(h); !resident || needPage {
			t.Fatalf("resident=%v needPage=%v", resident, needPage)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckGrowth allocated %v times per call, want 0", allocs)
	}
}

// TestGrowOneAllocatesNothing: claiming a page at each page boundary, and
// taking the token inside a page, allocates nothing.
func TestGrowOneAllocatesNothing(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 16, 400)
	if err := rig.m.AllocateResident(r, 16); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 16
	h := rig.m.Handle(r)
	clock := simclock.New()
	allocs := testing.AllocsPerRun(100, func() {
		if !rig.m.GrowOne(h) {
			t.Fatal("growth with free pages failed")
		}
		r.DeliverTokens(clock, 0, 1)
	})
	if allocs != 0 {
		t.Errorf("GrowOne allocated %v times per token, want 0", allocs)
	}
	if want := rig.m.Pages(r.ContextLen()); rig.m.UsedPages() != want {
		t.Errorf("used %d pages for a %d-token context, want %d", rig.m.UsedPages(), r.ContextLen(), want)
	}
}

// checkGrowthByID is the map-probe path the residency handle replaced:
// the entry found by request ID, resident only on the device. It stays as
// the handle's reference.
func (m *Manager) checkGrowthByID(r *request.Request) (resident, needPage bool) {
	e, ok := m.entries[r.ID]
	if !ok || e.res != ResGPU {
		return false, false
	}
	return true, m.Pages(r.ContextLen()+1) > e.pages
}

// Property: under the engine's handle discipline — a handle taken when a
// request enters the device (allocation, load completion) and kept until
// it leaves — the handle's CheckGrowth agrees with the map probe for every
// request after every operation of a random allocate / grow / sync /
// preempt / load / discard / release-as-prefix / crash sequence.
func TestHandleMatchesMapProbe(t *testing.T) {
	f := func(seed int64) bool {
		cfg := fullConfig()
		cfg.PrefixPages = 16
		rig := newRig(t, cfg)
		rng := rand.New(rand.NewSource(seed))
		held := map[*request.Request]Handle{}
		rig.m.cb.LoadDone = func(r *request.Request, _ simclock.Time) { held[r] = rig.m.Handle(r) }
		var reqs []*request.Request
		resident := func() *request.Request {
			for _, i := range rng.Perm(len(reqs)) {
				if rig.m.Residency(reqs[i]) == ResGPU {
					return reqs[i]
				}
			}
			return nil
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(9) {
			case 0: // allocate, adopting the session's pin if any
				r := newReq(len(reqs)+1, rng.Intn(200)+1, 50)
				r.Session = 1 + rng.Intn(3)
				if rig.m.CanAdmit(r.PromptLen, r.Session) {
					if err := rig.m.AllocateWithPrefix(r, r.PromptLen, r.Session); err != nil {
						t.Log(err)
						return false
					}
					r.PrefilledTokens = r.PromptLen
					held[r] = rig.m.Handle(r)
					reqs = append(reqs, r)
				}
			case 1: // decode one token
				if r := resident(); r != nil && rig.m.GrowOne(held[r]) {
					r.DeliverTokens(rig.clock, rig.clock.Now(), 1)
				}
			case 2:
				rig.m.BackgroundSync(rig.clock.Now(), time.Duration(rng.Intn(5))*time.Millisecond)
			case 3:
				if r := resident(); r != nil {
					if _, err := rig.m.Preempt(r, rig.clock.Now()); err != nil {
						t.Log(err)
						return false
					}
				}
			case 4:
				for _, r := range reqs {
					need := int(rig.m.HostBytes(r) / rig.m.PageBytes())
					if rig.m.Residency(r) == ResHost && need <= rig.m.FreePages() {
						if _, err := rig.m.StartLoad(r, rig.clock.Now()); err != nil {
							t.Log(err)
							return false
						}
						break
					}
				}
			case 5:
				if r := resident(); r != nil {
					rig.m.Discard(r)
				}
			case 6:
				if r := resident(); r != nil {
					rig.m.ReleaseAsPrefix(r, r.Session, rig.clock.Now())
				}
			case 7:
				if rng.Intn(8) == 0 {
					rig.m.Crash()
				}
			default:
				rig.clock.RunUntil(rig.clock.Now().Add(time.Duration(rng.Intn(10)) * time.Millisecond))
			}
			for _, r := range reqs {
				gotRes, gotPage := rig.m.CheckGrowth(held[r])
				wantRes, wantPage := rig.m.checkGrowthByID(r)
				if gotRes != wantRes || gotPage != wantPage {
					t.Logf("seed %d step %d request %d (%v): handle says resident=%v needPage=%v, map probe %v %v",
						seed, step, r.ID, rig.m.Residency(r), gotRes, gotPage, wantRes, wantPage)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllocateRejectsOverCapacity(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 64*16+1, 10) // 65 pages > 64
	if err := rig.m.AllocateResident(r, r.PromptLen); err == nil {
		t.Error("over-capacity allocation should fail")
	}
	if !rig.m.CanAllocate(64 * 16) {
		t.Error("exactly full pool should be allocatable")
	}
	if rig.m.CanAllocate(64*16 + 1) {
		t.Error("pool+1 should not be allocatable")
	}
}

func TestDoubleAllocateFails(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 16, 10)
	if err := rig.m.AllocateResident(r, 16); err != nil {
		t.Fatal(err)
	}
	if err := rig.m.AllocateResident(r, 16); err == nil {
		t.Error("double allocation should fail")
	}
}

func TestGrowExhaustionSignalsOOM(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 64*16, 10)
	if err := rig.m.AllocateResident(r, r.PromptLen); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = r.PromptLen
	h := rig.m.Handle(r)
	if resident, needPage := rig.m.CheckGrowth(h); !resident || !needPage {
		t.Fatalf("full pool at page boundary: resident=%v needPage=%v", resident, needPage)
	}
	if rig.m.GrowOne(h) {
		t.Error("growth past pool should fail")
	}
	if rig.m.FreePages() != 0 || rig.m.UsedPages() != 64 {
		t.Errorf("failed growth moved pages: used=%d free=%d", rig.m.UsedPages(), rig.m.FreePages())
	}
}

func TestDiscardFreesEverything(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 48, 10)
	if err := rig.m.AllocateResident(r, 48); err != nil {
		t.Fatal(err)
	}
	rig.m.Discard(r)
	if rig.m.FreePages() != 64 {
		t.Errorf("free after discard = %d", rig.m.FreePages())
	}
	if rig.m.Residency(r) != ResNone {
		t.Errorf("residency = %v", rig.m.Residency(r))
	}
	// Discard of unknown request is a no-op.
	rig.m.Discard(newReq(99, 16, 1))
}

func TestPreemptWithoutOffloadDiscards(t *testing.T) {
	cfg := fullConfig()
	cfg.Offload = false
	rig := newRig(t, cfg)
	r := newReq(1, 32, 10)
	if err := rig.m.AllocateResident(r, 32); err != nil {
		t.Fatal(err)
	}
	done, err := rig.m.Preempt(r, rig.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if done != rig.clock.Now() {
		t.Error("discard preemption should complete instantly")
	}
	if rig.m.FreePages() != 64 || rig.m.Residency(r) != ResNone {
		t.Error("discard should free all pages")
	}
	if len(rig.evictDone) != 1 || rig.evictDone[0] != 1 {
		t.Error("EvictDone should fire")
	}
	if rig.m.HostBytes(r) != 0 {
		t.Error("no host copy without offload")
	}
}

func TestWriteBackEvictionTransfersEverything(t *testing.T) {
	cfg := fullConfig()
	cfg.WriteThrough = false
	rig := newRig(t, cfg)
	r := newReq(1, 256, 10) // 16 pages = 1 MiB
	if err := rig.m.AllocateResident(r, 256); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 256
	done, err := rig.m.Preempt(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantWire := rig.d2h.TransferTime(16 * rig.m.PageBytes())
	if done != simclock.Time(wantWire) {
		t.Errorf("eviction done at %v, want %v", done, simclock.Time(wantWire))
	}
	// Pages are not free until the transfer completes... except none were
	// synced, so overlap has nothing to reclaim early.
	if rig.m.FreePages() != 48 {
		t.Errorf("free during eviction = %d, want 48", rig.m.FreePages())
	}
	rig.clock.Run()
	if rig.m.FreePages() != 64 || rig.m.Residency(r) != ResHost {
		t.Errorf("after eviction: free=%d res=%v", rig.m.FreePages(), rig.m.Residency(r))
	}
	if rig.m.HostBytes(r) != 16*rig.m.PageBytes() {
		t.Errorf("host bytes = %d", rig.m.HostBytes(r))
	}
}

func TestWriteThroughMakesPreemptionNearInstant(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 256, 10)
	if err := rig.m.AllocateResident(r, 256); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 256
	// Background-sync all 16 pages with a generous 1-hour iteration budget.
	rig.m.BackgroundSync(0, time.Hour)
	rig.clock.Run()
	rig.clock.RunUntil(rig.m.d2h.BusyUntil()) // the sync landings are not events
	if rig.m.EstimateEvict(r, rig.clock.Now()) != 0 {
		t.Errorf("evict estimate after full sync = %v, want 0", rig.m.EstimateEvict(r, rig.clock.Now()))
	}
	now := rig.clock.Now()
	done, err := rig.m.Preempt(r, now)
	if err != nil {
		t.Fatal(err)
	}
	if done != now {
		t.Errorf("fully synced preemption should be instant, done at %v (now %v)", done, now)
	}
	if rig.m.FreePages() != 64 {
		t.Errorf("free = %d, overlap should reclaim synced pages immediately", rig.m.FreePages())
	}
}

func TestChunkedSyncRespectsIterationBudget(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 1024, 10) // 64 pages = 4 MiB
	if err := rig.m.AllocateResident(r, 1024); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 1024
	// 1 ms iteration at 1 GB/s = 1 MB budget = 15 pages (page = 65536 B).
	rig.m.BackgroundSync(0, time.Millisecond)
	if got := rig.d2h.QueueDelay(0); got > time.Millisecond {
		t.Errorf("booked write exceeds iteration budget: %v", got)
	}
	rig.clock.Run()
	// ~15 pages synced; remaining dirty.
	if est := rig.m.EstimateEvict(r, rig.clock.Now()); est == 0 {
		t.Error("partial sync should leave dirty pages")
	}
}

func TestSyncWithoutWriteThroughIsNoop(t *testing.T) {
	cfg := fullConfig()
	cfg.WriteThrough = false
	rig := newRig(t, cfg)
	r := newReq(1, 256, 10)
	if err := rig.m.AllocateResident(r, 256); err != nil {
		t.Fatal(err)
	}
	rig.m.BackgroundSync(0, time.Hour)
	if rig.m.Stats().SyncChunks != 0 {
		t.Error("write-back should never background-sync")
	}
}

func TestIterBoundaryStall(t *testing.T) {
	cfg := fullConfig()
	cfg.ChunkedWriting = false
	rig := newRig(t, cfg)
	r := newReq(1, 1024, 10)
	if err := rig.m.AllocateResident(r, 1024); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 1024
	rig.m.BackgroundSync(0, time.Millisecond)
	// All 64 pages (4 MiB) booked at once: 4 ms backlog stalls the boundary.
	stall := rig.m.IterBoundaryStall(0)
	if stall < 3*time.Millisecond {
		t.Errorf("unchunked write-through should stall boundaries, got %v", stall)
	}
	// Chunked config never stalls.
	rig2 := newRig(t, fullConfig())
	r2 := newReq(1, 1024, 10)
	if err := rig2.m.AllocateResident(r2, 1024); err != nil {
		t.Fatal(err)
	}
	rig2.m.BackgroundSync(0, time.Millisecond)
	if rig2.m.IterBoundaryStall(0) != 0 {
		t.Error("chunked writing must not stall iteration boundaries")
	}
}

func TestLoadRestoresResidency(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 256, 10)
	if err := rig.m.AllocateResident(r, 256); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 256
	if _, err := rig.m.Preempt(r, 0); err != nil {
		t.Fatal(err)
	}
	rig.clock.Run()
	if rig.m.Residency(r) != ResHost {
		t.Fatalf("residency = %v", rig.m.Residency(r))
	}
	done, err := rig.m.StartLoad(r, rig.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rig.m.Residency(r) != ResLoading {
		t.Errorf("residency during load = %v", rig.m.Residency(r))
	}
	if rig.m.FreePages() != 48 {
		t.Errorf("pages should be claimed at load start, free=%d", rig.m.FreePages())
	}
	rig.clock.Run()
	if rig.m.Residency(r) != ResGPU {
		t.Errorf("residency after load = %v", rig.m.Residency(r))
	}
	if len(rig.loadDone) != 1 || rig.loadTimes[1] != done {
		t.Error("LoadDone should fire at completion time")
	}
	// After a loaded resume the host copy is still clean: instant preempt.
	d2, err := rig.m.Preempt(r, rig.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if d2 != rig.clock.Now() {
		t.Error("re-preemption after load should be instant (incremental updates)")
	}
}

func TestLoadRequiresHostResidency(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 32, 10)
	if _, err := rig.m.StartLoad(r, 0); err == nil {
		t.Error("loading unknown request should fail")
	}
	if err := rig.m.AllocateResident(r, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.m.StartLoad(r, 0); err == nil {
		t.Error("loading resident request should fail")
	}
}

func TestLoadRequiresFreePages(t *testing.T) {
	rig := newRig(t, fullConfig())
	victim := newReq(1, 512, 10) // 32 pages
	if err := rig.m.AllocateResident(victim, 512); err != nil {
		t.Fatal(err)
	}
	victim.PrefilledTokens = 512
	if _, err := rig.m.Preempt(victim, 0); err != nil {
		t.Fatal(err)
	}
	rig.clock.Run()
	// Fill the pool completely.
	hog := newReq(2, 64*16, 10)
	if err := rig.m.AllocateResident(hog, hog.PromptLen); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.m.StartLoad(victim, rig.clock.Now()); err == nil {
		t.Error("load without free pages should fail")
	}
}

func TestLoadEvictOverlapDisabledSerializes(t *testing.T) {
	cfg := fullConfig()
	cfg.LoadEvictOverlap = false
	cfg.WriteThrough = false // make the eviction slow
	rig := newRig(t, cfg)

	victim := newReq(1, 512, 10) // 32 pages = 2 MiB -> 2ms eviction
	other := newReq(2, 256, 10)
	if err := rig.m.AllocateResident(victim, 512); err != nil {
		t.Fatal(err)
	}
	victim.PrefilledTokens = 512
	if err := rig.m.AllocateResident(other, 256); err != nil {
		t.Fatal(err)
	}
	other.PrefilledTokens = 256
	if _, err := rig.m.Preempt(other, 0); err != nil {
		t.Fatal(err)
	}
	rig.clock.Run() // other fully on host
	evictEnd, err := rig.m.Preempt(victim, rig.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	loadDone, err := rig.m.StartLoad(other, rig.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if loadDone <= evictEnd {
		t.Errorf("without overlap the load (%v) must wait for the eviction (%v)", loadDone, evictEnd)
	}

	// With overlap, the same sequence loads concurrently.
	rig2 := newRig(t, func() Config { c := fullConfig(); c.WriteThrough = false; return c }())
	v2 := newReq(1, 512, 10)
	o2 := newReq(2, 256, 10)
	if err := rig2.m.AllocateResident(v2, 512); err != nil {
		t.Fatal(err)
	}
	v2.PrefilledTokens = 512
	if err := rig2.m.AllocateResident(o2, 256); err != nil {
		t.Fatal(err)
	}
	o2.PrefilledTokens = 256
	if _, err := rig2.m.Preempt(o2, 0); err != nil {
		t.Fatal(err)
	}
	rig2.clock.Run()
	evictEnd2, err := rig2.m.Preempt(v2, rig2.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	loadDone2, err := rig2.m.StartLoad(o2, rig2.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if loadDone2 >= evictEnd2 {
		t.Errorf("with overlap the load (%v) should finish before the 2-MiB eviction (%v)", loadDone2, evictEnd2)
	}
}

func TestPriorityWritesOrderByBuffer(t *testing.T) {
	rig := newRig(t, fullConfig())
	clock := simclock.New()
	small := request.New(1, 0, 16, 100, 1e6)
	big := request.New(2, 0, 16, 100, 1e6)
	if err := rig.m.AllocateResident(small, 16); err != nil {
		t.Fatal(err)
	}
	if err := rig.m.AllocateResident(big, 16); err != nil {
		t.Fatal(err)
	}
	small.PrefilledTokens = 16
	big.PrefilledTokens = 16
	// big accumulates a larger client buffer.
	big.Rate = 0.001
	small.Rate = 0.001
	big.DeliverTokens(clock, 0, 50)
	small.DeliverTokens(clock, 0, 5)
	cands := rig.m.syncCandidates(clock.Now())
	if len(cands) != 2 || cands[0].req.ID != 2 {
		t.Errorf("priority writes should order request 2 first: %v", ids(cands))
	}
	// FIFO ordering when disabled.
	cfg := fullConfig()
	cfg.PriorityWrites = false
	rig2 := newRig(t, cfg)
	if err := rig2.m.AllocateResident(small, 16); err != nil {
		t.Fatal(err)
	}
	if err := rig2.m.AllocateResident(big, 16); err != nil {
		t.Fatal(err)
	}
	c2 := rig2.m.syncCandidates(clock.Now())
	if len(c2) != 2 || c2[0].req.ID != 1 {
		t.Errorf("FIFO writes should order request 1 first: %v", ids(c2))
	}
}

func ids(es []*entry) []int {
	var out []int
	for _, e := range es {
		out = append(out, e.req.ID)
	}
	return out
}

func TestEstimateLoadIncludesQueueing(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 512, 10)
	if err := rig.m.AllocateResident(r, 512); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 512
	if _, err := rig.m.Preempt(r, 0); err != nil {
		t.Fatal(err)
	}
	rig.clock.Run()
	base := rig.m.EstimateLoad(r, rig.clock.Now())
	if base <= 0 {
		t.Fatal("load estimate should be positive")
	}
	// Occupy the h2d link and re-estimate.
	rig.h2d.Enqueue(rig.clock.Now(), 10e6) // 10 ms backlog
	withQueue := rig.m.EstimateLoad(r, rig.clock.Now())
	if withQueue <= base {
		t.Errorf("queueing should inflate the estimate: %v vs %v", withQueue, base)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rig := newRig(t, fullConfig())
	r := newReq(1, 256, 10)
	if err := rig.m.AllocateResident(r, 256); err != nil {
		t.Fatal(err)
	}
	r.PrefilledTokens = 256
	rig.m.BackgroundSync(0, time.Hour)
	rig.clock.Run()
	if _, err := rig.m.Preempt(r, rig.clock.Now()); err != nil {
		t.Fatal(err)
	}
	rig.clock.Run()
	if _, err := rig.m.StartLoad(r, rig.clock.Now()); err != nil {
		t.Fatal(err)
	}
	rig.clock.Run()
	s := rig.m.Stats()
	if s.Evictions != 1 || s.Loads != 1 || s.SyncChunks == 0 || s.BytesLoaded == 0 {
		t.Errorf("stats = %+v", s)
	}
}

// Property: any random sequence of allocate / grow / sync / preempt / load /
// discard operations preserves page accounting: free + sum(gpuHeld) ==
// capacity, and free never goes negative.
func TestPropertyPageAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rig := newRig(t, fullConfig())
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]*request.Request, 0)
		nextID := 1
		check := func() bool {
			held := 0
			for _, e := range rig.m.entries {
				if e.gpuHeld < 0 || e.synced < 0 || e.inFlight < 0 {
					return false
				}
				held += e.gpuHeld
			}
			return rig.m.free >= 0 && rig.m.free+held == rig.m.cfg.GPUPages
		}
		for step := 0; step < 300; step++ {
			if !check() {
				return false
			}
			op := rng.Intn(6)
			switch op {
			case 0: // allocate
				r := newReq(nextID, rng.Intn(300)+1, 50)
				nextID++
				if rig.m.CanAllocate(r.PromptLen) {
					if rig.m.AllocateResident(r, r.PromptLen) != nil {
						return false
					}
					r.PrefilledTokens = r.PromptLen
					reqs = append(reqs, r)
				}
			case 1: // grow a random resident request
				for _, r := range reqs {
					if rig.m.Residency(r) == ResGPU && rig.m.FreePages() > 0 {
						rig.m.GrowOne(rig.m.Handle(r))
						break
					}
				}
			case 2: // background sync
				rig.m.BackgroundSync(rig.clock.Now(), time.Duration(rng.Intn(5))*time.Millisecond)
			case 3: // preempt
				for _, r := range reqs {
					if rig.m.Residency(r) == ResGPU {
						if _, err := rig.m.Preempt(r, rig.clock.Now()); err != nil {
							return false
						}
						break
					}
				}
			case 4: // load
				for _, r := range reqs {
					need := int(rig.m.HostBytes(r) / rig.m.PageBytes())
					if rig.m.Residency(r) == ResHost && need <= rig.m.FreePages() {
						if _, err := rig.m.StartLoad(r, rig.clock.Now()); err != nil {
							return false
						}
						break
					}
				}
			case 5: // discard or advance time
				if rng.Intn(2) == 0 {
					for _, r := range reqs {
						if rig.m.Residency(r) == ResGPU {
							rig.m.Discard(r)
							break
						}
					}
				} else {
					rig.clock.RunUntil(rig.clock.Now().Add(time.Duration(rng.Intn(10)) * time.Millisecond))
				}
			}
		}
		rig.clock.Run()
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBackgroundSync(b *testing.B) {
	rig := newRig(b, fullConfig())
	var reqs []*request.Request
	for i := 0; i < 32; i++ {
		r := newReq(i, 256, 100)
		if err := rig.m.AllocateResident(r, 256); err != nil {
			break
		}
		r.PrefilledTokens = 256
		reqs = append(reqs, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.m.BackgroundSync(rig.clock.Now(), time.Millisecond)
		rig.clock.RunUntil(rig.clock.Now().Add(time.Millisecond))
	}
}
