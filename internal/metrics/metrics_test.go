package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/request"
	"repro/internal/simclock"
)

func TestQoSParamsValidate(t *testing.T) {
	if err := DefaultQoSParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []QoSParams{
		{Lambda: -1},
		{Mu: -1},
		{Lambda: -1, Mu: -1},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("params %+v should fail", p)
		}
	}
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(d, 0.5); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(d, 0.99); got != 10 {
		t.Errorf("p99 = %v", got)
	}
	if got := Percentile(d, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(d, 1); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("singleton p99 = %v", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty percentile should panic")
		}
	}()
	Percentile(nil, 0.5)
}

// buildRequest creates a finished request with a synthetic token history.
// The testing.T parameter is unused but keeps call sites uniform; it may be
// nil.
func buildRequest(_ *testing.T, id int, arrival, firstToken float64, rate float64, out int, gap float64) *request.Request {
	clock := simclock.New()
	r := request.New(id, simclock.FromSeconds(arrival), 64, out, rate)
	at := simclock.FromSeconds(firstToken)
	for j := 0; j < out; j++ {
		clock.RunUntil(at)
		r.DeliverTokens(clock, at, 1)
		at = at.Add(simclock.Duration(gap))
	}
	clock.Run()
	return r
}

func TestAnalyzeSingleRequest(t *testing.T) {
	// 100 tokens at 20 tok/s generation, consumed at 20 tok/s: buffer never
	// grows, everything effective, no stalls.
	r := buildRequest(t, 1, 0, 1.0, 20, 100, 0.05)
	rep := Analyze([]*request.Request{r}, simclock.FromSeconds(10), DefaultQoSParams())
	if rep.N != 1 || rep.Finished != 1 {
		t.Fatalf("N=%d finished=%d", rep.N, rep.Finished)
	}
	if rep.MeanTTFT != time.Second {
		t.Errorf("TTFT = %v", rep.MeanTTFT)
	}
	if rep.TotalOut != 100 {
		t.Errorf("out = %d", rep.TotalOut)
	}
	if rep.Throughput != 10 {
		t.Errorf("throughput = %v", rep.Throughput)
	}
	// All tokens within tau1 (buffer stays ~1 token, threshold = 10).
	if rep.EffectiveTokens < 99 {
		t.Errorf("effective tokens = %v", rep.EffectiveTokens)
	}
	if rep.TotalRebuffer != 0 || rep.StallFraction != 0 {
		t.Errorf("unexpected stalls: %v / %v", rep.TotalRebuffer, rep.StallFraction)
	}
}

func TestAnalyzeOverfastGenerationLosesEffectiveness(t *testing.T) {
	// Generation 10x faster than consumption: buffer balloons, most tokens
	// land beyond tau2 and count zero.
	fast := buildRequest(t, 1, 0, 0.5, 10, 200, 0.01)
	rep := Analyze([]*request.Request{fast}, simclock.FromSeconds(25), DefaultQoSParams())
	if rep.EffectiveTokens > 100 {
		t.Errorf("effective tokens = %.1f, want far below 200", rep.EffectiveTokens)
	}
	if rep.Throughput <= rep.EffectiveThroughput {
		t.Error("raw throughput should exceed effective under over-generation")
	}
}

func TestAnalyzeCensoredTTFT(t *testing.T) {
	r := request.New(1, simclock.FromSeconds(2), 64, 10, 20) // never served
	rep := Analyze([]*request.Request{r}, simclock.FromSeconds(12), DefaultQoSParams())
	if !rep.Requests[0].TTFTCensored {
		t.Error("unserved request should have censored TTFT")
	}
	if rep.Requests[0].TTFT != 10*time.Second {
		t.Errorf("censored TTFT = %v", rep.Requests[0].TTFT)
	}
	if rep.Finished != 0 {
		t.Error("unserved request is unfinished")
	}
}

func TestAnalyzeQoSPenalties(t *testing.T) {
	p := DefaultQoSParams()
	// Same token profile, but second run has a 5s-later first token: QoS
	// must be strictly lower.
	early := buildRequest(t, 1, 0, 1, 20, 50, 0.05)
	late := buildRequest(t, 1, 0, 6, 20, 50, 0.05)
	repE := Analyze([]*request.Request{early}, simclock.FromSeconds(20), p)
	repL := Analyze([]*request.Request{late}, simclock.FromSeconds(20), p)
	if repL.QoS >= repE.QoS {
		t.Errorf("late TTFT should lower QoS: %v vs %v", repL.QoS, repE.QoS)
	}
}

func TestAnalyzeRebufferPenalty(t *testing.T) {
	p := DefaultQoSParams()
	// Smooth delivery at the consumption rate vs. delivery with a long gap
	// mid-stream (client stalls).
	smooth := buildRequest(t, 1, 0, 1, 20, 40, 0.05)
	clock := simclock.New()
	stalled := request.New(2, 0, 64, 40, 20)
	stalled.DeliverTokens(clock, simclock.FromSeconds(1), 20)
	clock.RunUntil(simclock.FromSeconds(8)) // buffer drains at 2s, stall 6s
	stalled.DeliverTokens(clock, clock.Now(), 20)
	clock.Run()
	if stalled.RebufferTotal == 0 {
		t.Fatal("expected a stall in the constructed history")
	}
	repS := Analyze([]*request.Request{smooth}, simclock.FromSeconds(20), p)
	repT := Analyze([]*request.Request{stalled}, simclock.FromSeconds(20), p)
	if repT.QoS >= repS.QoS {
		t.Errorf("rebuffering should lower QoS: %v vs %v", repT.QoS, repS.QoS)
	}
	if repT.StallFraction != 1 {
		t.Errorf("stall fraction = %v", repT.StallFraction)
	}
}

func TestAnalyzeGenRate(t *testing.T) {
	r := buildRequest(t, 1, 0, 1, 1e9, 101, 0.05) // 20 tok/s generation
	rep := Analyze([]*request.Request{r}, simclock.FromSeconds(10), DefaultQoSParams())
	gr := rep.Requests[0].GenRate
	if gr < 19.9 || gr > 20.1 {
		t.Errorf("gen rate = %v, want 20", gr)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil, simclock.FromSeconds(1), DefaultQoSParams())
	if rep.N != 0 || rep.QoS != 0 {
		t.Error("empty analysis should be zeroed")
	}
}

// Property: QoS never exceeds effective throughput (penalties only
// subtract) and effective <= raw throughput.
func TestPropertyQoSBounds(t *testing.T) {
	f := func(seed int64) bool {
		gap := 0.02 + float64(seed%7)/100
		r := buildRequest(nil, 1, 0, 1, 15, 80, gap)
		rep := Analyze([]*request.Request{r}, simclock.FromSeconds(30), DefaultQoSParams())
		return rep.QoS <= rep.EffectiveThroughput+1e-9 &&
			rep.EffectiveThroughput <= rep.Throughput+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		loads []float64
		want  float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{100, 100, 100, 100}, 1},
		{[]float64{200, 100, 100}, 1.5},
		{[]float64{400, 0, 0, 0}, 4},
	}
	for _, c := range cases {
		if got := Imbalance(c.loads); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Imbalance(%v) = %v, want %v", c.loads, got, c.want)
		}
	}
}

// TestAnalyzeAllocations pins Analyze to two allocations whatever the
// population size: the per-request metrics and the TTFT scratch, each
// sized once.
func TestAnalyzeAllocations(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		reqs := make([]*request.Request, n)
		for i := range reqs {
			reqs[i] = buildRequest(t, i, float64(i%7), float64(i%7)+1, 20, 3, 0.05)
		}
		var rep Report
		allocs := testing.AllocsPerRun(20, func() {
			rep = Analyze(reqs, simclock.FromSeconds(20), DefaultQoSParams())
		})
		if allocs != 2 || len(rep.Requests) != n || cap(rep.Requests) != n {
			t.Errorf("n=%d: %v allocations, %d/%d request metrics; want 2 and %d/%d",
				n, allocs, len(rep.Requests), cap(rep.Requests), n, n)
		}
	}
}
