package request

import (
	"testing"
	"unsafe"

	"repro/internal/simclock"
)

func TestArenaAllocatesValidRequests(t *testing.T) {
	var a Arena
	seen := map[*Request]bool{}
	for i := 0; i < 3*arenaSlab/2; i++ {
		r := a.New(i, simclock.FromSeconds(float64(i)), 64, 32, 20)
		if r.ID != i || r.PromptLen != 64 || r.OutputLen != 32 || r.State != StateQueued {
			t.Fatalf("arena request %d malformed: %+v", i, r)
		}
		if seen[r] {
			t.Fatalf("arena handed out request %d twice", i)
		}
		seen[r] = true
	}
}

func TestArenaNewPanicsLikeNew(t *testing.T) {
	var a Arena
	defer func() {
		if recover() == nil {
			t.Error("arena New with zero output length should panic")
		}
	}()
	a.New(1, 0, 16, 0, 20)
}

// The admit-side hot path — one arena'd request plus its full token
// delivery — allocates nothing per request: delivery keeps running totals,
// not per-token records, and the slab's share (one allocation per
// arenaSlab requests) rounds to zero per run. (Mirrors aibrix's
// BenchmarkAddRequest discipline.)
func TestRequestAdmitAllocationBound(t *testing.T) {
	var a Arena
	c := simclock.New()
	id := 0
	avg := testing.AllocsPerRun(2000, func() {
		r := a.New(id, c.Now(), 128, 32, 0)
		id++
		r.DeliverTokens(c, c.Now(), 32)
	})
	if avg != 0 {
		t.Errorf("admit+deliver allocates %.2f objects per request, want 0", avg)
	}
}

// TestRequestSize pins the per-request footprint the arena comment and
// the memory budget of million-request runs rely on: the running totals
// replaced the per-token slices, so the struct no longer grows.
func TestRequestSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Request{}); got != 216 {
		t.Errorf("Request is %d bytes, want 216", got)
	}
}

func BenchmarkArenaAdmit(b *testing.B) {
	var a Arena
	c := simclock.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := a.New(i, c.Now(), 128, 32, 0)
		r.DeliverTokens(c, c.Now(), 32)
	}
}
