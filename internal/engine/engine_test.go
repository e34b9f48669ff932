package engine

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// smallGPU is a scaled-down device so tests exercise memory pressure with
// tiny workloads: ~8k KV tokens of capacity.
func smallGPU() gpu.Spec {
	g := gpu.RTX4090
	g.Name = "test-gpu"
	g.MemoryGB = 18.2 // 0.9*18.2GB - 16.06GB weights ≈ 0.32GB ≈ 2400 tokens
	return g
}

func testConfig(s sched.Scheduler, kv KVPolicy) Config {
	return Config{
		GPU:       smallGPU(),
		Model:     model.Llama3_8B,
		Scheduler: s,
		KV:        kv,
	}
}

func runWorkload(t *testing.T, cfg Config, w trace.Workload) *Result {
	t.Helper()
	e, err := NewStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Drive(e, w, 0)
}

func burst(n, prompt, output int, rate float64) trace.Workload {
	return trace.Burst("b", n, 0, trace.FixedLengths{Prompt: prompt, Output: output}, trace.FixedRate(rate), 1)
}

// TestConfigValidation: New surfaces Normalize's errors and rejects a
// deployment whose weights leave no KV capacity.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil scheduler should fail")
	}
	cfg := testConfig(sched.NewSGLang(), BaselineKVPolicy())
	cfg.MemFraction = 1.5
	if _, err := NewStandalone(cfg); err == nil {
		t.Error("bad mem fraction should fail")
	}
	cfg = testConfig(sched.NewSGLang(), BaselineKVPolicy())
	cfg.MemFraction = 0.5 // weights alone exceed 0.5 * 18.2 GB
	if _, err := NewStandalone(cfg); err == nil {
		t.Error("no KV capacity should fail")
	}
}

func TestSingleRequestCompletes(t *testing.T) {
	res := runWorkload(t, testConfig(sched.NewSGLang(), BaselineKVPolicy()), burst(1, 128, 64, 20))
	if res.Report.Finished != 1 {
		t.Fatalf("finished = %d", res.Report.Finished)
	}
	r := res.Requests[0]
	if r.Generated != 64 {
		t.Errorf("generated = %d", r.Generated)
	}
	// TTFT should be roughly one prefill (~tens of ms on the test GPU).
	if res.Report.MeanTTFT > time.Second {
		t.Errorf("TTFT = %v, too slow for an idle system", res.Report.MeanTTFT)
	}
	if res.Report.TotalRebuffer != 0 {
		t.Errorf("a lone request at 20 tok/s should never stall, rebuffer=%v", res.Report.TotalRebuffer)
	}
	if res.PrefillIters == 0 || res.DecodeIters == 0 {
		t.Error("expected both prefill and decode iterations")
	}
}

func TestTokenTimesMonotonic(t *testing.T) {
	res := runWorkload(t, testConfig(sched.NewSGLang(), BaselineKVPolicy()), burst(4, 128, 100, 20))
	for _, r := range res.Requests {
		times := r.Timeline.Times
		for j := 1; j < len(times); j++ {
			if times[j] < times[j-1] {
				t.Fatalf("req %d token times not monotone", r.ID)
			}
		}
		if len(times) != r.Generated {
			t.Fatalf("req %d: %d timestamps for %d tokens", r.ID, len(times), r.Generated)
		}
		if times[0] != r.FirstTokenAt || times[len(times)-1] != r.LastTokenAt {
			t.Fatalf("req %d: timeline spans %v..%v, first/last token at %v..%v",
				r.ID, times[0], times[len(times)-1], r.FirstTokenAt, r.LastTokenAt)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w := trace.Poisson("p", 3, simclock.FromSeconds(5), trace.FixedLengths{Prompt: 128, Output: 80}, trace.FixedRate(20), 7)
	a := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()), w)
	b := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()), w)
	if a.Report.MeanTTFT != b.Report.MeanTTFT || a.Report.TotalOut != b.Report.TotalOut ||
		a.Makespan != b.Makespan || a.Iterations != b.Iterations {
		t.Error("identical runs should be bit-identical")
	}
}

func TestAllSchedulersCompleteBurst(t *testing.T) {
	scheds := map[string]func() (sched.Scheduler, KVPolicy){
		"sglang":  func() (sched.Scheduler, KVPolicy) { return sched.NewSGLang(), BaselineKVPolicy() },
		"chunked": func() (sched.Scheduler, KVPolicy) { return sched.NewSGLangChunked(), BaselineKVPolicy() },
		"andes":   func() (sched.Scheduler, KVPolicy) { return sched.NewAndes(), BaselineKVPolicy() },
		"tokenflow": func() (sched.Scheduler, KVPolicy) {
			return core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()
		},
	}
	// 12 requests of full context 448 against a ~2400-token pool: heavy
	// overcommit, requires queueing or preemption to finish.
	w := burst(12, 192, 256, 20)
	for name, mk := range scheds {
		s, kv := mk()
		res := runWorkload(t, testConfig(s, kv), w)
		if res.TimedOut {
			t.Errorf("%s: timed out", name)
			continue
		}
		if res.Report.Finished != 12 {
			t.Errorf("%s: finished %d/12", name, res.Report.Finished)
		}
		if res.Report.TotalOut != 12*256 {
			t.Errorf("%s: generated %d tokens, want %d", name, res.Report.TotalOut, 12*256)
		}
	}
}

func TestChunkedPrefillRunsMixedIterations(t *testing.T) {
	res := runWorkload(t, testConfig(sched.NewSGLangChunked(), BaselineKVPolicy()), burst(3, 256, 64, 20))
	if res.MixedIters == 0 {
		t.Error("chunked scheduler should run mixed iterations")
	}
}

func TestTokenFlowPreemptsUnderPressure(t *testing.T) {
	// Burst of 12 with consumption far slower than generation: buffers
	// accumulate, TokenFlow should preempt to serve the queue.
	w := burst(12, 192, 256, 10)
	res := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()), w)
	if res.Report.Preemptions == 0 {
		t.Error("TokenFlow should preempt under this pressure")
	}
	if res.KV.Loads == 0 && res.Report.Finished == 12 {
		// Resumes could all be recompute in principle, but with PCIe load
		// being far cheaper than recompute, some loads must occur.
		t.Error("expected at least one host-copy load")
	}
}

func TestTokenFlowImprovesTTFTOverSGLang(t *testing.T) {
	// The paper's headline: under burst, preemptive buffer-aware
	// scheduling cuts TTFT while consumption-rate pacing keeps effective
	// throughput up.
	w := burst(16, 192, 320, 12)
	sg := runWorkload(t, testConfig(sched.NewSGLang(), BaselineKVPolicy()), w)
	tf := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()), w)
	if tf.Report.Finished != 16 || sg.Report.Finished != 16 {
		t.Fatalf("finished: tf=%d sg=%d", tf.Report.Finished, sg.Report.Finished)
	}
	if tf.Report.P99TTFT >= sg.Report.P99TTFT {
		t.Errorf("TokenFlow P99 TTFT %v should beat SGLang %v", tf.Report.P99TTFT, sg.Report.P99TTFT)
	}
	if tf.Report.EffectiveThroughput < sg.Report.EffectiveThroughput*0.9 {
		t.Errorf("TokenFlow effective throughput %.1f should not collapse vs SGLang %.1f",
			tf.Report.EffectiveThroughput, sg.Report.EffectiveThroughput)
	}
}

func TestSamplesRecorded(t *testing.T) {
	e, err := NewStandalone(testConfig(sched.NewSGLang(), BaselineKVPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	res := Drive(e, burst(6, 192, 128, 20), 100*time.Millisecond)
	if len(res.Samples) < 5 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// At t=0 the burst is queued.
	if res.Samples[0].Queued == 0 {
		t.Error("first sample should show the queued burst")
	}
}

func TestInstantConsumersComplete(t *testing.T) {
	// Rate 0 = agent-style consumers (no pacing).
	res := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()), burst(6, 128, 128, 0))
	if res.Report.Finished != 6 {
		t.Errorf("finished = %d", res.Report.Finished)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	w := trace.Poisson("p", 2, simclock.FromSeconds(8), trace.FixedLengths{Prompt: 160, Output: 120}, trace.FixedRate(15), 3)
	res := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()), w)
	if res.Report.Finished != w.Len() {
		t.Errorf("finished %d/%d", res.Report.Finished, w.Len())
	}
}

func TestBoundaryStallOnlyWithoutChunking(t *testing.T) {
	// On a constrained PCIe link the unchunked write-through backlog
	// cannot drain within an iteration, so boundaries stall (§5.2's
	// scheduling dependency); synchronous chunked writing sizes transfers
	// to the compute interval and never stalls.
	kv := TokenFlowKVPolicy()
	kv.ChunkedWriting = false
	w := burst(8, 192, 256, 12)
	slow := func() Config {
		c := testConfig(core.MustNew(core.DefaultConfig()), kv)
		c.GPU.PCIeGBps = 0.05
		return c
	}()
	res := runWorkload(t, slow, w)
	chunkedCfg := func() Config {
		c := testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy())
		c.GPU.PCIeGBps = 0.05
		return c
	}()
	chunked := runWorkload(t, chunkedCfg, w)
	if chunked.BoundaryStall != 0 {
		t.Errorf("chunked writing must never stall boundaries, got %v", chunked.BoundaryStall)
	}
	if res.BoundaryStall == 0 {
		t.Error("unchunked write-through should pay boundary stalls")
	}
}

func TestAblationOrdering(t *testing.T) {
	// Table 2's structure: full TokenFlow completes the workload fastest;
	// removing offload (recompute-only preemption) is the most expensive.
	w := burst(12, 192, 256, 10)
	mk := func(kv KVPolicy) time.Duration {
		res := runWorkload(t, testConfig(core.MustNew(core.DefaultConfig()), kv), w)
		if res.Report.Finished != 12 {
			t.Fatalf("finished = %d", res.Report.Finished)
		}
		return res.Makespan
	}
	full := mk(TokenFlowKVPolicy())
	noOffload := TokenFlowKVPolicy()
	noOffload.Offload = false
	woOffload := mk(noOffload)
	if woOffload < full {
		t.Errorf("w/o offload (%v) should not beat full TokenFlow (%v)", woOffload, full)
	}
}

func TestViewConsistency(t *testing.T) {
	e, err := NewStandalone(testConfig(sched.NewSGLang(), BaselineKVPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	v := e.view(0)
	if v.TotalTokens <= 0 || v.FreeTokens != v.TotalTokens {
		t.Errorf("fresh engine view: free=%d total=%d", v.FreeTokens, v.TotalTokens)
	}
}

func BenchmarkBurstTokenFlow(b *testing.B) {
	w := burst(12, 192, 256, 12)
	for i := 0; i < b.N; i++ {
		e, err := NewStandalone(testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()))
		if err != nil {
			b.Fatal(err)
		}
		Drive(e, w, 0)
	}
}

// TestAdvanceDecodeNeedsResidency: a decode step hands a token only to a
// batch member whose KV is resident, growing its allocation when the
// token crosses a page.
func TestAdvanceDecodeNeedsResidency(t *testing.T) {
	e, err := NewStandalone(testConfig(sched.NewSGLang(), BaselineKVPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	page := kvcache.PageTokens
	running := func(id int) *request.Request {
		r := request.New(id, 0, page, 100, 20)
		r.State = request.StateRunning
		r.PrefilledTokens = r.PromptLen
		return r
	}
	decode := func(r *request.Request, h kvcache.Handle) {
		e.advanceDecode([]*request.Request{r}, []kvcache.Handle{h}, 0)
	}
	stranger := running(1)
	decode(stranger, e.mem.Handle(stranger))
	if stranger.Generated != 0 {
		t.Errorf("non-resident request decoded %d tokens", stranger.Generated)
	}
	r := running(2)
	if err := e.mem.AllocateResident(r, r.PromptLen); err != nil {
		t.Fatal(err)
	}
	h := e.mem.Handle(r)
	used := e.mem.UsedPages()
	decode(r, h) // crosses into a second page
	decode(r, h) // stays inside it
	if r.Generated != 2 {
		t.Errorf("resident request decoded %d tokens, want 2", r.Generated)
	}
	if got := e.mem.UsedPages() - used; got != 1 {
		t.Errorf("two decode steps from a full page claimed %d pages, want 1", got)
	}
	// A handle taken before the request was discarded decodes nothing,
	// even once the request is resident again under a new entry.
	e.mem.Discard(r)
	if err := e.mem.AllocateResident(r, r.ContextLen()); err != nil {
		t.Fatal(err)
	}
	decode(r, h)
	if r.Generated != 2 {
		t.Errorf("a stale handle decoded a token: generated %d, want 2", r.Generated)
	}
	decode(r, e.mem.Handle(r))
	if r.Generated != 3 {
		t.Errorf("a fresh handle decoded %d tokens in total, want 3", r.Generated)
	}
}
