package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Fig01 reproduces Figure 1: token consumption speeds for reading and
// listening across age groups and languages.
func Fig01() (*Table, error) {
	t := &Table{
		ID:     "Figure 1",
		Title:  "Token consumption speeds by age group and language (tokens/s)",
		Header: []string{"age", "language", "reading", "listening"},
	}
	for _, row := range trace.ConsumptionTable() {
		t.Rows = append(t.Rows, []string{
			string(row.Age), string(row.Language),
			ffloat(row.Reading, 2), ffloat(row.Listening, 2),
		})
	}
	t.Notes = "Paper shape: all rates in the 2-8 tok/s band, reading > listening, peak in working age."
	return t, nil
}

// toyDeployment builds the Figure 6 device: a compute-bound toy
// accelerator with ~60 tokens/s of total decode capacity shared across
// the batch (the paper's "generation capacity" semantics) and KV memory
// for roughly two concurrent requests.
func toyDeployment() cluster.Deployment {
	g := gpu.Spec{
		Name:         "toy",
		FP16TFLOPS:   100, // decode is memory-bound on this toy
		HBMGBps:      811, // ≈33 ms per decode step -> 30 tok/s per stream
		PCIeGBps:     25,
		MemoryGB:     17.92, // ≈520 KV tokens at mem-frac 0.9
		ComputeEff:   0.45,
		BandwidthEff: 0.60,
		IterOverhead: 0,
	}
	// MaxBatch 2 is the toy's "supports two concurrent requests": total
	// generation capacity 60 tokens/s split 30/30.
	return cluster.Deployment{GPU: g, Model: model.Llama3_8B, MemFraction: 0.9, MaxBatch: 2}
}

// Fig06 reproduces Figure 6: the toy buffer-balancing example. Three
// requests (15, 20, 18 tokens/s; the third arrives at t=2) share a
// 60 tokens/s device that runs two concurrent streams; the table tracks
// each request's client buffer over time, showing admission control,
// preemption of the fat-buffer stream, and reactivation before depletion.
func Fig06() (*Table, error) {
	dep := toyDeployment()
	w := trace.Workload{Name: "toy", Items: []trace.Item{
		{Arrival: 0, PromptLen: 32, OutputLen: 140, Rate: 15},
		{Arrival: 0, PromptLen: 32, OutputLen: 180, Rate: 20},
		{Arrival: simclock.FromSeconds(2), PromptLen: 32, OutputLen: 150, Rate: 18},
	}}
	cfg := core.DefaultConfig()
	cfg.RescheduleInterval = 500 * time.Millisecond
	cfg.TargetBufferSeconds = 1.5
	cfg.BufferConservativeness = 1.2
	res, err := runRecorded(dep, system(engine.SystemTokenFlow, cfg), w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 6",
		Title:  "Toy example: buffer sizes under buffer-aware scheduling",
		Header: []string{"t(s)", "R1-buffer", "R2-buffer", "R3-buffer"},
	}
	end := res.Makespan.Seconds()
	for ts := 0.0; ts <= end+0.25; ts += 0.5 {
		row := []string{ffloat(ts, 1)}
		for _, r := range res.Requests {
			row = append(row, fint(int64(bufferAt(r, ts))))
		}
		t.Rows = append(t.Rows, row)
	}
	var preempts int
	for _, r := range res.Requests {
		preempts += r.Preemptions
	}
	t.Notes = fmt.Sprintf("Paper shape: R3 waits for buffer accumulation, then preempts the fattest buffer; %d preemption(s) occurred, no stalls=%v.",
		preempts, res.Report.TotalRebuffer == 0)
	return t, nil
}

// bufferAt replays a request's client consumption over its recorded
// token times to compute buffer occupancy at time ts.
func bufferAt(r *request.Request, ts float64) int {
	if r.Generated == 0 || r.Rate <= 0 {
		return 0
	}
	times := r.Timeline.Times
	gen := 0
	for _, tt := range times {
		if tt.Seconds() <= ts {
			gen++
		}
	}
	if gen == 0 {
		return 0
	}
	// Replay the consumer: one token at TTFT, then one every 1/r, stalling
	// on empty buffer.
	consumed := 0
	next := r.FirstTokenAt.Seconds()
	interval := 1 / r.Rate
	for next <= ts && consumed < r.OutputLen {
		// Token `consumed` must exist by `next`.
		if consumed < len(times) {
			avail := times[consumed].Seconds()
			if avail > next {
				next = avail // stall until delivery
				if next > ts {
					break
				}
			}
			consumed++
			next += interval
		} else {
			break
		}
	}
	b := gen - consumed
	if b < 0 {
		b = 0
	}
	return b
}

// Fig08 reproduces Figure 8: comparison of KV write strategies. One
// victim stream with a large buffer and one small-buffer stream share the
// device; after a short execution window the victim is preempted. The
// write-back baseline pays the full transfer at preemption; write-through
// has mostly synchronized; priority rearrangement syncs the likely victim
// first and cuts the overhead further.
func Fig08() (*Table, error) {
	type strategy struct {
		name string
		cfg  kvcache.Config
	}
	base := kvcache.Config{
		GPUPages: 256, BytesPerToken: model.Llama3_8B.KVBytesPerToken(),
		Policy: kvcache.Policy{Offload: true, LoadEvictOverlap: true},
	}
	wt := base
	wt.WriteThrough = true
	wt.ChunkedWriting = true
	wtp := wt
	wtp.PriorityWrites = true
	strategies := []strategy{
		{"write-back", base},
		{"write-through", wt},
		{"write-through+rearrange", wtp},
	}
	t := &Table{
		ID:     "Figure 8",
		Title:  "KV write strategies: preemption overhead",
		Header: []string{"strategy", "evict-latency", "vs-write-back"},
	}
	var writeBackLatency time.Duration
	for _, s := range strategies {
		lat, err := writeStrategyLatency(s.cfg)
		if err != nil {
			return nil, err
		}
		if s.name == "write-back" {
			writeBackLatency = lat
		}
		red := 0.0
		if writeBackLatency > 0 {
			red = (writeBackLatency - lat).Seconds() / writeBackLatency.Seconds() * 100
		}
		t.Rows = append(t.Rows, []string{s.name, fmt.Sprintf("%.2fms", lat.Seconds()*1e3), fpct(red)})
	}
	t.Notes = "Paper shape: write-through removes most of the at-preemption transfer; rearranged writes remove the rest (§5.1-5.2 report a 20.3% preemption-overhead reduction overall)."
	return t, nil
}

// writeStrategyLatency measures preempt-to-host-complete latency for the
// victim under a given write policy, with a constrained sync window so
// the strategies differ.
func writeStrategyLatency(cfg kvcache.Config) (time.Duration, error) {
	clock := simclock.New()
	ep := fabric.NewSingleHost(2e9, 2e9) // constrained link: sync cannot finish everything
	var evictAt, doneAt simclock.Time
	m, err := kvcache.New(cfg, clock, ep, kvcache.Callbacks{
		EvictDone: func(r *request.Request, now simclock.Time) {
			if r.ID == 2 {
				doneAt = now
			}
		},
	})
	if err != nil {
		return 0, err
	}
	small := request.New(1, 0, 512, 600, 1e-6) // tiny buffer (slow consumer but few tokens delivered)
	victim := request.New(2, 0, 2048, 600, 1e-6)
	if err := m.AllocateResident(small, 512); err != nil {
		return 0, err
	}
	if err := m.AllocateResident(victim, 2048); err != nil {
		return 0, err
	}
	small.PrefilledTokens = 512
	victim.PrefilledTokens = 2048
	// The victim has the larger client buffer (more undelivered tokens).
	small.DeliverTokens(clock, 0, 10)
	victim.DeliverTokens(clock, 0, 400)
	// Four 20ms compute intervals of background sync; the link moves 40 MB
	// per interval while the victim alone holds 256 MB.
	for i := 0; i < 4; i++ {
		m.BackgroundSync(clock.Now(), 20*time.Millisecond)
		clock.RunUntil(clock.Now().Add(20 * time.Millisecond))
	}
	evictAt = clock.Now()
	if _, err := m.Preempt(victim, evictAt); err != nil {
		return 0, err
	}
	clock.Run()
	return doneAt.Sub(evictAt), nil
}

// Fig09 reproduces Figure 9: synchronous chunked writing versus plain
// asynchronous write-through. On a constrained link the asynchronous
// variant stalls iteration boundaries (the scheduling dependency); the
// chunked scheme never does.
func Fig09() (*Table, error) {
	dep := dep4090Llama
	dep.GPU.PCIeGBps = 0.08 // constrained host link makes the backlog visible
	w := trace.Burst("fig9", scaled(24), 0, lengthDist(256, 512), trace.FixedRate(12), 9)

	res1, err := runOne(dep, tokenFlow, w, 0)
	if err != nil {
		return nil, err
	}
	kv := engine.TokenFlowKVPolicy()
	kv.ChunkedWriting = false
	res2, err := runOne(dep, tokenFlow.withKV(kv), w, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 9",
		Title:  "Synchronous chunked writing vs asynchronous write-through",
		Header: []string{"scheme", "boundary-stall", "makespan", "iterations"},
		Rows: [][]string{
			{"sync-chunked", fsec(res1.BoundaryStall), fsec(res1.Makespan), fint(res1.Iterations)},
			{"async (unchunked)", fsec(res2.BoundaryStall), fsec(res2.Makespan), fint(res2.Iterations)},
		},
	}
	t.Notes = "Paper shape: chunked writes complete within compute intervals (zero stall); async IO interferes with iteration prelude/epilogue."
	return t, nil
}

// Fig10 reproduces Figure 10: load-evict overlap. Preempting one request
// while resuming two others completes far sooner when synchronized pages
// reclaim immediately and loads overlap the remaining eviction.
func Fig10() (*Table, error) {
	t := &Table{
		ID:     "Figure 10",
		Title:  "Load-evict overlap: preempt one request while resuming two",
		Header: []string{"mode", "loads-complete-at", "evict-completes-at"},
	}
	for _, overlap := range []bool{true, false} {
		loadDone, evictDone, err := loadEvictScenario(overlap)
		if err != nil {
			return nil, err
		}
		name := "overlap"
		if !overlap {
			name = "request-level (serialized)"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.2fms", loadDone.Seconds()*1e3), fmt.Sprintf("%.2fms", evictDone.Seconds()*1e3)})
	}
	t.Notes = "Paper shape: overlapped chunked transfers finish the resumes before the full eviction drains; serialization delays them behind it."
	return t, nil
}

func loadEvictScenario(overlap bool) (loadDone, evictDone simclock.Time, err error) {
	cfg := kvcache.Config{
		GPUPages: 96, BytesPerToken: model.Llama3_8B.KVBytesPerToken(),
		Policy: kvcache.Policy{Offload: true, LoadEvictOverlap: overlap, WriteThrough: true, ChunkedWriting: true},
	}
	clock := simclock.New()
	ep := fabric.NewSingleHost(5e9, 5e9)
	var lastLoad, evictAt simclock.Time
	m, err := kvcache.New(cfg, clock, ep, kvcache.Callbacks{
		LoadDone: func(r *request.Request, now simclock.Time) {
			if now > lastLoad {
				lastLoad = now
			}
		},
		EvictDone: func(r *request.Request, now simclock.Time) {
			if r.ID == 0 {
				evictAt = now
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	// Requests 1 and 2 are on the host (previously evicted); request 0 is
	// resident with its first pages synced.
	r0 := request.New(0, 0, 768, 10, 20)
	r1 := request.New(1, 0, 256, 10, 20)
	r2 := request.New(2, 0, 256, 10, 20)
	for _, r := range []*request.Request{r1, r2} {
		if err := m.AllocateResident(r, r.PromptLen); err != nil {
			return 0, 0, err
		}
		r.PrefilledTokens = r.PromptLen
		if _, err := m.Preempt(r, clock.Now()); err != nil {
			return 0, 0, err
		}
		clock.Run()
	}
	if err := m.AllocateResident(r0, r0.PromptLen); err != nil {
		return 0, 0, err
	}
	r0.PrefilledTokens = r0.PromptLen
	// One 3 ms write-through chunk on the idle link: 7 of r0's 48 pages.
	m.BackgroundSync(clock.Now(), 3*time.Millisecond)
	clock.Run()
	clock.RunUntil(ep.D2H().BusyUntil()) // the sync landing is not an event
	// Preempt r0 and immediately resume r1 and r2.
	if _, err := m.Preempt(r0, clock.Now()); err != nil {
		return 0, 0, err
	}
	for _, r := range []*request.Request{r1, r2} {
		if _, err := m.StartLoad(r, clock.Now()); err != nil {
			return 0, 0, err
		}
	}
	clock.Run()
	return lastLoad, evictAt, nil
}
