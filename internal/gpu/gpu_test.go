package gpu

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

func TestZooValidates(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("H200")
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoryGB != 141 {
		t.Errorf("H200 memory = %v", s.MemoryGB)
	}
	if _, err := ByName("TPU-v9"); err == nil {
		t.Error("unknown device should error")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero flops", func(s *Spec) { s.FP16TFLOPS = 0 }},
		{"zero bw", func(s *Spec) { s.HBMGBps = 0 }},
		{"zero pcie", func(s *Spec) { s.PCIeGBps = 0 }},
		{"zero memory", func(s *Spec) { s.MemoryGB = 0 }},
		{"eff > 1", func(s *Spec) { s.ComputeEff = 1.5 }},
		{"eff zero", func(s *Spec) { s.BandwidthEff = 0 }},
		{"negative overhead", func(s *Spec) { s.IterOverhead = -time.Millisecond }},
	}
	for _, tc := range cases {
		s := H200
		tc.mod(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func mustCost(t testing.TB, g Spec, m model.Spec) *CostModel {
	t.Helper()
	c, err := NewCostModel(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCostModelRejectsOversizedModel(t *testing.T) {
	if _, err := NewCostModel(RTX4090, model.Qwen25_32B); err == nil {
		t.Error("32B model should not fit a 24GB card")
	}
}

func TestKVCapacityH200Llama(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	// mem-frac 0.3 on 141 GB = 42.3 GB; minus 16.06 GB weights = 26.2 GB;
	// at 131072 B/token that is ~200k tokens.
	got := c.KVCapacityTokens(0.3)
	if got < 150_000 || got > 250_000 {
		t.Errorf("KV capacity = %d tokens, want ~200k", got)
	}
	if c.KVCapacityTokens(0.05) != 0 {
		t.Error("capacity should clamp to 0 when weights exceed budget")
	}
}

func TestKVCapacity4090Llama(t *testing.T) {
	c := mustCost(t, RTX4090, model.Llama3_8B)
	got := c.KVCapacityTokens(0.9)
	// 21.6 - 16.06 = 5.54 GB -> ~42k tokens.
	if got < 30_000 || got > 55_000 {
		t.Errorf("KV capacity = %d tokens, want ~42k", got)
	}
}

func TestPrefillTimeScalesWithTokens(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	t512 := c.PrefillTime(512)
	t4096 := c.PrefillTime(4096)
	if t4096 <= t512 {
		t.Errorf("prefill(4096)=%v should exceed prefill(512)=%v", t4096, t512)
	}
	// Beyond the fixed overhead, an 8x token count costs ~8x compute.
	ratio := float64(t4096-H200.IterOverhead) / float64(t512-H200.IterOverhead)
	if ratio < 4 || ratio > 9 {
		t.Errorf("prefill scaling ratio = %.1f, want roughly 8x (compute-bound)", ratio)
	}
	if c.PrefillTime(0) != 0 {
		t.Error("prefill of zero tokens should be free")
	}
}

func TestPrefillTimePlausible(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	// 512-token prompt on H200 should land in the tens of milliseconds.
	got := c.PrefillTime(512)
	if got < 5*time.Millisecond || got > 200*time.Millisecond {
		t.Errorf("prefill(512) = %v, implausible", got)
	}
}

func TestDecodeMemoryBound(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	// Small batches are weight-streaming bound: doubling batch should not
	// double step time.
	s1 := c.DecodeStepTime(1, 1024)
	s2 := c.DecodeStepTime(2, 2048)
	if float64(s2) > 1.5*float64(s1) {
		t.Errorf("decode step nearly doubled (%v -> %v); should be memory-bound", s1, s2)
	}
	// But growing total context grows the step time.
	sBig := c.DecodeStepTime(64, 64*8192)
	sSmall := c.DecodeStepTime(64, 64*128)
	if sBig <= sSmall {
		t.Errorf("longer context should slow decode: %v vs %v", sBig, sSmall)
	}
}

func TestDecodeSpeedPlausible(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	// Single-request decode speed on H200 should be tens of tokens/s
	// (memory-bound on 16 GB of weights + overhead).
	step := c.DecodeStepTime(1, 1024)
	perSec := 1 / step.Seconds()
	if perSec < 30 || perSec > 300 {
		t.Errorf("single-stream decode = %.0f tok/s, implausible", perSec)
	}
	// Batch-32 aggregate throughput should be far higher than 1-stream.
	agg := c.PeakDecodeTokensPerSec(32, 1536)
	if agg < 5*perSec {
		t.Errorf("batch-32 aggregate %.0f tok/s should dominate 1-stream %.0f", agg, perSec)
	}
}

func TestMixedStepTime(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	if got, want := c.MixedStepTime(0, 8, 8*1024), c.DecodeStepTime(8, 8*1024); got != want {
		t.Errorf("mixed with no prefill = %v, want pure decode %v", got, want)
	}
	if got, want := c.MixedStepTime(256, 0, 0), c.PrefillTime(256); got != want {
		t.Errorf("mixed with no decode = %v, want pure prefill %v", got, want)
	}
	mixed := c.MixedStepTime(256, 8, 8*1024)
	if mixed < c.DecodeStepTime(8, 8*1024) {
		t.Error("mixed step should not be faster than its decode part")
	}
}

func TestPeakDecodeZeroBatch(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	if got := c.PeakDecodeTokensPerSec(0, 1024); got != 0 {
		t.Errorf("zero batch throughput = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	c := mustCost(t, H200, model.Llama3_8B)
	// 1 GB at 50 GB/s = 20 ms.
	got := c.TransferTime(1e9)
	if got < 15*time.Millisecond || got > 25*time.Millisecond {
		t.Errorf("transfer(1GB) = %v, want ~20ms", got)
	}
	if c.TransferTime(0) != 0 || c.TransferTime(-5) != 0 {
		t.Error("non-positive transfers should be free")
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	l := NewLink("d2h", 1e9) // 1 GB/s
	now := simclock.FromSeconds(0)
	s1, d1 := l.Enqueue(now, 1e9) // 1s wire time
	if s1 != now || d1 != simclock.FromSeconds(1) {
		t.Errorf("first transfer start=%v done=%v", s1, d1)
	}
	s2, d2 := l.Enqueue(now, 5e8) // queued behind first
	if s2 != simclock.FromSeconds(1) || d2 != simclock.FromSeconds(1.5) {
		t.Errorf("second transfer start=%v done=%v", s2, d2)
	}
	if got := l.QueueDelay(now); got != 1500*time.Millisecond {
		t.Errorf("queue delay = %v", got)
	}
}

func TestLinkStatsAndUtilization(t *testing.T) {
	l := NewLink("h2d", 2e9)
	l.Enqueue(simclock.FromSeconds(0), 2e9) // 1s busy
	bytes, busy, n := l.Stats()
	if bytes != 2e9 || n != 1 {
		t.Errorf("stats bytes=%d n=%d", bytes, n)
	}
	if busy != time.Second {
		t.Errorf("busy = %v", busy)
	}
}

func TestLinkZeroByteTransfer(t *testing.T) {
	l := NewLink("d2h", 1e9)
	s, d := l.Enqueue(simclock.FromSeconds(1), 0)
	if s != d || s != simclock.FromSeconds(1) {
		t.Errorf("zero-byte transfer start=%v done=%v", s, d)
	}
}

func TestLinkNegativeTransferPanics(t *testing.T) {
	l := NewLink("d2h", 1e9)
	defer func() {
		if recover() == nil {
			t.Error("negative transfer should panic")
		}
	}()
	l.Enqueue(0, -1)
}

func TestNewLinkZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth should panic")
		}
	}()
	NewLink("bad", 0)
}

// Property: FIFO link never starts a transfer before submission nor before
// the previous transfer's completion, and completion ordering matches
// submission ordering.
func TestPropertyLinkFIFO(t *testing.T) {
	f := func(sizes []uint32) bool {
		l := NewLink("p", 1e8)
		var lastDone simclock.Time
		now := simclock.Time(0)
		for i, raw := range sizes {
			if i > 300 {
				break
			}
			n := int64(raw % 1e7)
			now = now.Add(time.Duration(raw%5) * time.Millisecond)
			start, done := l.Enqueue(now, n)
			if start < now || done < start || done < lastDone {
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: decode step time is monotone in batch and context.
func TestPropertyDecodeMonotone(t *testing.T) {
	c := mustCost(t, A6000, model.Qwen2_7B)
	f := func(b1, b2 uint8, ctx1, ctx2 uint16) bool {
		lo, hi := int(b1%64)+1, int(b2%64)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		c1, c2 := int64(ctx1), int64(ctx2)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		return c.DecodeStepTime(lo, c1) <= c.DecodeStepTime(hi, c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeStepTime(b *testing.B) {
	c := mustCost(b, H200, model.Llama3_8B)
	for i := 0; i < b.N; i++ {
		_ = c.DecodeStepTime(32, 32*1536)
	}
}

// TestLinkSnapshotBacklogBoundaries pins the backlog math at transfer tick
// boundaries: the backlog a snapshot reports shrinks linearly while a
// transfer is on the wire, is exactly zero at the instant the link drains
// (busyUntil <= now means a new transfer starts immediately), and stacks
// across queued transfers.
func TestLinkSnapshotBacklogBoundaries(t *testing.T) {
	l := NewLink("pcie", 1e9)
	start, done := l.Enqueue(0, 1e9) // exactly 1 s of wire
	if start != 0 || done != simclock.FromSeconds(1) {
		t.Fatalf("transfer booked [%v, %v]", start, done)
	}

	if got := l.Snapshot(0).Backlog; got != time.Second {
		t.Errorf("backlog at submission = %v, want 1s", got)
	}
	mid := simclock.FromSeconds(0.25)
	if got := l.Snapshot(mid).Backlog; got != 750*time.Millisecond {
		t.Errorf("backlog mid-transfer = %v, want 750ms", got)
	}
	// Boundary instant: the transfer completes at exactly t=1s, so a
	// submission then waits zero — the boundary belongs to "drained".
	if got := l.Snapshot(done).Backlog; got != 0 {
		t.Errorf("backlog at completion instant = %v, want 0", got)
	}
	if got := l.Snapshot(done + 1).Backlog; got != 0 {
		t.Errorf("backlog after completion = %v, want 0", got)
	}

	// A second transfer submitted mid-wire stacks behind the first; the
	// backlog at the first transfer's boundary is exactly the second's
	// remaining wire time.
	l2 := NewLink("pcie", 1e9)
	l2.Enqueue(0, 1e9)
	s2, d2 := l2.Enqueue(simclock.FromSeconds(0.5), 5e8)
	if s2 != simclock.FromSeconds(1) || d2 != simclock.FromSeconds(1.5) {
		t.Fatalf("queued transfer booked [%v, %v]", s2, d2)
	}
	if got := l2.Snapshot(simclock.FromSeconds(1)).Backlog; got != 500*time.Millisecond {
		t.Errorf("backlog at tick boundary = %v, want 500ms", got)
	}

	snap := l2.Snapshot(simclock.FromSeconds(1))
	if snap.Name != "pcie" || snap.Transfers != 2 || snap.Bytes != 15e8 {
		t.Errorf("snapshot counters = %+v", snap)
	}
	if snap.Busy != 1500*time.Millisecond {
		t.Errorf("snapshot busy = %v, want 1.5s", snap.Busy)
	}
}

// TestLinkReserve: the fabric's multi-link booking primitive updates
// counters like Enqueue and rejects reservations behind the backlog.
func TestLinkReserve(t *testing.T) {
	l := NewLink("nic", 1e9)
	l.Reserve(0, simclock.FromSeconds(2), 1e9) // held 2s by a slower bottleneck
	if l.BusyUntil() != simclock.FromSeconds(2) {
		t.Errorf("busyUntil = %v", l.BusyUntil())
	}
	b, busy, n := l.Stats()
	if b != 1e9 || busy != 2*time.Second || n != 1 {
		t.Errorf("stats = (%d, %v, %d)", b, busy, n)
	}
	defer func() {
		if recover() == nil {
			t.Error("reserving before the backlog should panic")
		}
	}()
	l.Reserve(simclock.FromSeconds(1), simclock.FromSeconds(3), 1)
}

// TestCachedOperandsExact holds the cost model's cached roofline operands
// to the expressions they replace: for every device × model pair in the
// zoo that fits, and a grid of prompt, batch and context sizes, each
// iteration's roofline seconds equal (==, every bit) the value derived
// from the specs on every call, and so do the predicted durations.
func TestCachedOperandsExact(t *testing.T) {
	step := func(g Spec, m model.Spec, tokens int, contextTokens int64) float64 {
		compute := float64(tokens) * m.FLOPsPerToken() / g.EffectiveFLOPs()
		bytes := float64(m.WeightBytes()) + float64(contextTokens)*float64(m.KVBytesPerToken())
		memory := bytes / g.EffectiveHBMBytesPerSec()
		return maxf(compute, memory)
	}
	prefill := func(g Spec, m model.Spec, tokens int) float64 {
		compute := float64(tokens) * m.FLOPsPerToken() / g.EffectiveFLOPs()
		memory := float64(m.WeightBytes()) / g.EffectiveHBMBytesPerSec()
		return maxf(compute, memory)
	}
	sizes := []int{1, 2, 3, 7, 16, 64, 255, 512, 1000, 4096, 8191, 32768}
	contexts := []int64{0, 1, 17, 1024, 65_536, 1_000_003, 12_345_678}
	pairs := 0
	for _, g := range All() {
		for _, m := range model.All() {
			c, err := NewCostModel(g, m)
			if err != nil {
				continue // the model does not fit on the device
			}
			pairs++
			at := func(s float64) time.Duration { return g.IterOverhead + secondsToDuration(s) }
			for _, n := range sizes {
				want := prefill(g, m, n)
				if got := c.prefillSeconds(n); got != want {
					t.Fatalf("%s/%s prefill(%d) = %v s, want %v s", g.Name, m.Name, n, got, want)
				}
				if got := c.PrefillTime(n); got != at(want) {
					t.Fatalf("%s/%s PrefillTime(%d) = %v, want %v", g.Name, m.Name, n, got, at(want))
				}
				for _, ctx := range contexts {
					want := step(g, m, n, ctx)
					if got := c.stepSeconds(n, ctx); got != want {
						t.Fatalf("%s/%s step(%d, %d) = %v s, want %v s", g.Name, m.Name, n, ctx, got, want)
					}
					if got := c.DecodeStepTime(n, ctx); got != at(want) {
						t.Fatalf("%s/%s DecodeStepTime(%d, %d) = %v, want %v", g.Name, m.Name, n, ctx, got, at(want))
					}
					for _, batch := range sizes[:6] {
						want := at(step(g, m, n+batch, ctx))
						if got := c.MixedStepTime(n, batch, ctx); got != want {
							t.Fatalf("%s/%s MixedStepTime(%d, %d, %d) = %v, want %v", g.Name, m.Name, n, batch, ctx, got, want)
						}
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no device × model pair fits")
	}
}
