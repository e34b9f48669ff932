package kvcache

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/request"
	"repro/internal/simclock"
)

// This file checks settle-on-read write-through against the reference it
// replaced: every booked sync chunk is a real clock event that moves its
// pages from inFlight to synced unless the entry left the device first.
// Operation sequences are decoded from bytes, so one decoder serves the
// seeded random test and the fuzz target.

// syncRef is the reference split of one resident entry's host progress.
type syncRef struct {
	synced, inFlight int
	dead             bool // preempted, released, discarded or crashed
}

// settleHarness drives a manager and the reference through the same
// operations on one clock.
type settleHarness struct {
	t    testing.TB
	rig  *testRig
	m    *Manager
	refs map[*entry]*syncRef
	reqs []*request.Request
	// nextSeq is one past the sequence number of the last landing the
	// reference has taken over.
	nextSeq uint64
	nextID  int
	// ties counts landings read at their own instant, by whether they
	// read as landed; partial counts preemptions of a partly synced entry;
	// loads counts completed resumes.
	ties           [2]int
	partial, loads int
}

func newSettleHarness(t testing.TB, flags int) *settleHarness {
	cfg := Config{Policy: Policy{
		WriteThrough:     true,
		Offload:          flags&1 == 0,
		ChunkedWriting:   flags&2 == 0,
		LoadEvictOverlap: flags&4 == 0,
		PriorityWrites:   flags&8 != 0,
	}, PrefixPages: 32}
	rig := newRig(t, cfg)
	h := &settleHarness{t: t, rig: rig, m: rig.m, refs: make(map[*entry]*syncRef)}
	// A resumed request is fully synced: only pages appended after the
	// load are dirty.
	loadDone := h.m.cb.LoadDone
	h.m.cb.LoadDone = func(r *request.Request, now simclock.Time) {
		loadDone(r, now)
		e := h.m.entries[r.ID]
		h.refs[e] = &syncRef{synced: e.pages}
		h.loads++
	}
	return h
}

// resident returns the i-th resident request (modulo their count), or nil.
func (h *settleHarness) resident(i int) *request.Request {
	var res []*request.Request
	for _, r := range h.reqs {
		if h.m.Residency(r) == ResGPU {
			res = append(res, r)
		}
	}
	if len(res) == 0 {
		return nil
	}
	return res[i%len(res)]
}

// adopt schedules the reference event of every landing booked since the
// last call, right after its reservation, so it ties with other events
// exactly as the reserved number does.
func (h *settleHarness) adopt() {
	for _, l := range h.m.landings {
		if l.seq < h.nextSeq {
			continue
		}
		h.nextSeq = l.seq + 1
		ref := h.refs[l.e]
		ref.inFlight += l.chunk
		chunk := l.chunk
		h.rig.clock.At(l.done, func(simclock.Time) {
			if !ref.dead {
				ref.inFlight -= chunk
				ref.synced += chunk
			}
		})
	}
}

// checkSums fails unless every resident entry's synced+inFlight matches
// the reference: a landing moves pages between the two, never out.
func (h *settleHarness) checkSums(op string) {
	h.t.Helper()
	for e, ref := range h.refs {
		if !ref.dead && e.synced+e.inFlight != ref.synced+ref.inFlight {
			h.t.Fatalf("after %s: request %d synced+inFlight = %d+%d, reference %d+%d",
				op, e.req.ID, e.synced, e.inFlight, ref.synced, ref.inFlight)
		}
	}
}

// checkSplit fails unless every resident entry's synced and inFlight equal
// the reference's; valid right after a reader settled.
func (h *settleHarness) checkSplit(op string) {
	h.t.Helper()
	for e, ref := range h.refs {
		if !ref.dead && (e.synced != ref.synced || e.inFlight != ref.inFlight) {
			h.t.Fatalf("after %s at %v: request %d synced/inFlight = %d/%d, reference %d/%d",
				op, h.rig.clock.Now(), e.req.ID, e.synced, e.inFlight, ref.synced, ref.inFlight)
		}
	}
}

// countTies records how the landings due at this very instant read.
func (h *settleHarness) countTies() {
	c := h.rig.clock
	for _, l := range h.m.landings {
		if l.done == c.Now() {
			if c.Fired(l.done, l.seq) {
				h.ties[1]++
			} else {
				h.ties[0]++
			}
		}
	}
}

// readAll compares every resident request's EstimateEvict with the
// reference's dirty pages, then the settled split.
func (h *settleHarness) readAll(op string) {
	h.t.Helper()
	h.countTies()
	now := h.rig.clock.Now()
	for _, r := range h.reqs {
		e := h.m.entries[r.ID]
		if e == nil || e.res != ResGPU {
			continue
		}
		ref := h.refs[e]
		got := h.m.EstimateEvict(r, now)
		var want time.Duration
		if h.m.cfg.Offload {
			want = h.rig.d2h.QueueDelay(now) + h.rig.d2h.TransferTime(int64(e.pages-ref.synced)*h.m.PageBytes())
		}
		if got != want {
			h.t.Fatalf("%s at %v: EstimateEvict(%d) = %v, reference %v (synced %d of %d)",
				op, now, r.ID, got, want, ref.synced, e.pages)
		}
	}
	h.checkSplit(op)
}

// preempt preempts r and compares the pages it reclaims at once and its
// completion time with what the reference's synced count implies.
func (h *settleHarness) preempt(r *request.Request) {
	h.t.Helper()
	h.countTies()
	e := h.m.entries[r.ID]
	ref := h.refs[e]
	now := h.rig.clock.Now()
	free0, busy := h.m.FreePages(), h.rig.d2h.BusyUntil()
	reclaim, wantDone := e.gpuHeld, now
	if dirty := e.pages - ref.synced; h.m.cfg.Offload && dirty > 0 {
		if ref.synced > 0 {
			h.partial++
		}
		reclaim = 0
		if h.m.cfg.LoadEvictOverlap {
			reclaim = ref.synced
		}
		wantDone = max(now, busy).Add(h.rig.d2h.TransferTime(int64(dirty) * h.m.PageBytes()))
	}
	done, err := h.m.Preempt(r, now)
	if err != nil {
		h.t.Fatal(err)
	}
	ref.dead = true
	if got := h.m.FreePages() - free0; got != reclaim || done != wantDone {
		h.t.Fatalf("Preempt(%d) at %v reclaimed %d pages, done %v; reference %d, %v (synced %d of %d)",
			r.ID, now, got, done, reclaim, wantDone, ref.synced, e.pages)
	}
	h.checkSplit("Preempt")
}

// probe schedules a read at instant at: every EstimateEvict, and a
// preemption when preempt is set.
func (h *settleHarness) probe(at simclock.Time, preempt bool, pick int) {
	h.rig.clock.At(at, func(simclock.Time) {
		h.readAll("probe")
		if r := h.resident(pick); preempt && r != nil {
			h.preempt(r)
		}
	})
}

// nextLanding predicts the landing of the next sync booking when the
// first dirty entry in write-queue order fits the budget whole, so a
// probe scheduled there ties with a landing booked after it.
func (h *settleHarness) nextLanding() (simclock.Time, bool) {
	for _, e := range h.m.syncOrder {
		if d := e.dirtyPages(); e.res == ResGPU && d > 0 {
			now := h.rig.clock.Now()
			return max(now, h.rig.d2h.BusyUntil()).Add(h.rig.d2h.TransferTime(int64(d) * h.m.PageBytes())), true
		}
	}
	return 0, false
}

// checkSyncSettle decodes data into manager operations, applies each to
// the manager and the reference, and fails on the first divergence.
func checkSyncSettle(t testing.TB, data []byte) *settleHarness {
	r := &byteReader{data: data}
	h := newSettleHarness(t, r.next())
	c := h.rig.clock
	for r.more() {
		switch op := r.next() % 12; op {
		case 0: // allocate
			tokens := 16 + r.next()*2
			if !h.m.CanAllocate(tokens) {
				break
			}
			req := request.New(h.nextID, 0, tokens, 1<<20, 1)
			h.nextID++
			if err := h.m.AllocateResident(req, tokens); err != nil {
				t.Fatal(err)
			}
			req.PrefilledTokens = tokens
			h.reqs = append(h.reqs, req)
			h.refs[h.m.entries[req.ID]] = &syncRef{}
		case 1: // grow by a few tokens
			if req := h.resident(r.next()); req != nil {
				for n := r.next() % 24; n > 0 && h.m.GrowOne(h.m.Handle(req)); n-- {
					req.DeliverTokens(c, c.Now(), 1)
				}
			}
		case 2: // background sync, maybe probing where its first chunk lands
			dur := time.Duration(r.next()%8) * 200 * time.Microsecond
			if x := r.next(); x%4 == 3 {
				dur = time.Hour
			} else if x%4 == 2 {
				if at, ok := h.nextLanding(); ok {
					h.probe(at, x%8 == 6, r.next())
				}
			}
			h.m.BackgroundSync(c.Now(), dur)
			h.adopt()
		case 3: // advance
			c.RunUntil(c.Now() + simclock.Time(r.next()%16)*25*simclock.Time(time.Microsecond))
		case 4: // step one event
			c.Step()
		case 5: // preempt
			if req := h.resident(r.next()); req != nil {
				h.preempt(req)
			}
		case 6: // release as a session prefix
			req := h.resident(r.next())
			if req == nil {
				break
			}
			e := h.m.entries[req.ID]
			ref := h.refs[e]
			session := 1 + r.next()%4
			old := h.m.pins[session]
			h.countTies()
			h.m.ReleaseAsPrefix(req, session, c.Now())
			ref.dead = true
			if p := h.m.pins[session]; p != nil && p != old && p.synced != min(ref.synced, p.pages) {
				t.Fatalf("ReleaseAsPrefix(%d) pinned %d synced pages, reference %d of %d",
					req.ID, p.synced, ref.synced, p.pages)
			}
			h.checkSplit("ReleaseAsPrefix")
		case 7: // discard
			if req := h.resident(r.next()); req != nil {
				h.refs[h.m.entries[req.ID]].dead = true
				h.m.Discard(req)
			}
		case 8: // crash
			if r.next()%4 == 0 {
				for _, ref := range h.refs {
					ref.dead = true
				}
				h.m.Crash()
			}
		case 9: // probe later, or exactly where a booked chunk lands
			at, x := c.Now()+simclock.Time(r.next()%8)*50*simclock.Time(time.Microsecond), r.next()
			if n := len(h.m.landings); x%2 == 0 && n > 0 {
				if l := h.m.landings[x%n]; l.done >= c.Now() {
					at = l.done
				}
			}
			h.probe(at, x%3 == 0, r.next())
		case 10: // read now
			h.readAll("read")
		case 11: // resume an evicted request
			for _, req := range h.reqs {
				if h.m.Residency(req) == ResHost && h.m.CanAllocate(req.ContextLen()) {
					if _, err := h.m.StartLoad(req, c.Now()); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		h.checkSums("op")
	}
	c.Run()
	return h
}

// Random operation sequences settle every landing exactly as the
// per-chunk clock events did, and the runs cover the tie cases and the
// partly synced preemptions the settle rule exists for.
func TestSyncSettleMatchesReference(t *testing.T) {
	var ties [2]int
	partial, loads := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		h := checkSyncSettle(t, data)
		ties[0] += h.ties[0]
		ties[1] += h.ties[1]
		partial += h.partial
		loads += h.loads
	}
	t.Logf("landings read at their instant pending/landed: %d/%d, partly synced preemptions: %d, resumes: %d",
		ties[0], ties[1], partial, loads)
	if ties[0] == 0 || ties[1] == 0 || partial == 0 || loads == 0 {
		t.Fatal("the random sequences missed a case the settle test must cover")
	}
}

// FuzzSyncSettle explores operation sequences beyond the seeded ones; its
// seed corpus is in testdata/fuzz/FuzzSyncSettle.
func FuzzSyncSettle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		checkSyncSettle(t, data)
	})
}

// byteReader hands out the fuzz input one byte at a time, then zeros.
type byteReader struct {
	data []byte
}

func (r *byteReader) more() bool { return len(r.data) > 0 }

func (r *byteReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}
