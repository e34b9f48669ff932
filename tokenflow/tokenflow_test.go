package tokenflow

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestRunDefaultsTokenFlowOnH200(t *testing.T) {
	w := BurstWorkload(8, 256, 256, 20, 1)
	res, err := Run(Config{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.System != SystemTokenFlow {
		t.Errorf("system = %v", res.System)
	}
	if res.Finished != 8 || res.N != 8 {
		t.Errorf("finished %d/%d", res.Finished, res.N)
	}
	if res.Throughput <= 0 || res.EffectiveThroughput <= 0 {
		t.Error("throughputs should be positive")
	}
	if res.EffectiveThroughput > res.Throughput+1e-9 {
		t.Error("effective cannot exceed raw throughput")
	}

	// The default system runs the paper's scheduler and full KV design.
	s, kv, err := Config{System: SystemTokenFlow}.system()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DefaultConfig().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*core.Scheduler).Config(); !reflect.DeepEqual(got, want) {
		t.Errorf("scheduler config = %+v, want %+v", got, want)
	}
	if kv != engine.TokenFlowKVPolicy() {
		t.Errorf("KV policy = %+v, want %+v", kv, engine.TokenFlowKVPolicy())
	}
}

// TestSystemsInPaperOrder: the public list is the shared system table's,
// in the paper's order.
func TestSystemsInPaperOrder(t *testing.T) {
	want := []System{"sglang-chunked", "sglang", "andes", "tokenflow"}
	if got := Systems(); !reflect.DeepEqual(got, want) {
		t.Errorf("Systems() = %v, want %v", got, want)
	}
}

func TestGPUsAndModelsInOrder(t *testing.T) {
	if got, want := GPUs(), []string{"RTX-4090", "A6000", "H200", "Ascend-910B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("GPUs() = %v, want %v", got, want)
	}
	if got, want := Models(), []string{"Llama3-8B", "Qwen2-7B", "Qwen2.5-7B", "Qwen2.5-32B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Models() = %v, want %v", got, want)
	}
}

func TestRunAllSystems(t *testing.T) {
	w := BurstWorkload(6, 256, 256, 20, 2)
	for _, sys := range Systems() {
		res, err := Run(Config{System: sys, GPU: "H200", Model: "Llama3-8B"}, w)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Finished != 6 {
			t.Errorf("%s: finished %d", sys, res.Finished)
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	w := BurstWorkload(1, 64, 64, 20, 1)
	if _, err := Run(Config{GPU: "H9000"}, w); err == nil {
		t.Error("unknown GPU should error")
	}
	if _, err := Run(Config{Model: "GPT-7"}, w); err == nil {
		t.Error("unknown model should error")
	}
	if _, err := Run(Config{System: "fifo"}, w); err == nil {
		t.Error("unknown system should error")
	}
}

func TestWorkloadGenerators(t *testing.T) {
	b := BurstWorkload(10, 512, 1024, 20, 3)
	if len(b) != 10 {
		t.Errorf("burst len = %d", len(b))
	}
	for _, r := range b {
		if r.Arrival != 0 {
			t.Error("burst requests arrive at t=0")
		}
	}
	p := PoissonWorkload(5, 20, 256, 256, 20, 3)
	if len(p) < 50 {
		t.Errorf("poisson len = %d, want ~100", len(p))
	}
	g := BurstGPTWorkload(60, 2, 20, 3)
	if len(g) < 50 {
		t.Errorf("burstgpt len = %d", len(g))
	}
}

func TestSamplesExposed(t *testing.T) {
	w := BurstWorkload(8, 256, 512, 15, 6)
	res, err := Run(Config{SampleEvery: 500 * time.Millisecond}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Error("sampling enabled but no samples")
	}
}

func TestPerRequestTimelines(t *testing.T) {
	w := Workload{{PromptLen: 128, OutputLen: 64, Rate: 20}}
	res, err := Run(Config{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 1 {
		t.Fatal("one request expected")
	}
	r := res.Requests[0]
	if r.Tokens != 64 {
		t.Errorf("tokens = %d", r.Tokens)
	}
	if r.TTFT <= 0 || r.TTFT > time.Second {
		t.Errorf("TTFT = %v", r.TTFT)
	}
}

func TestMaxSimTime(t *testing.T) {
	w := BurstWorkload(40, 512, 2048, 5, 7)
	res, err := Run(Config{GPU: "RTX-4090", MaxSimTime: 2 * time.Second}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("2-second cap should time out this workload")
	}
}

// TestRunRejectsNegativeTimes: a negative deadline or sample period is an
// error, not a run that times out at once or silently records nothing.
func TestRunRejectsNegativeTimes(t *testing.T) {
	w := BurstWorkload(8, 128, 64, 20, 3)
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"negative-max-sim-time", Config{MaxSimTime: -5 * time.Second}, "max sim time -5s"},
		{"negative-sample-every", Config{SampleEvery: -time.Second}, "sample period -1s"},
	}
	for _, c := range cases {
		res, err := Run(c.cfg, w)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run = %+v, %v; want an error containing %q", c.name, res, err, c.want)
		}
	}
}

// TestRunRejectsBadRates: a NaN, infinite or negative consumption rate is
// an error naming the request, not a panic or a silently served run; 0 is
// an instant consumer and runs.
func TestRunRejectsBadRates(t *testing.T) {
	for _, c := range []struct {
		rate float64
		want string // substring of the error; "" means the run succeeds
	}{
		{0, ""},
		{math.NaN(), "item 1 has consumption rate NaN"},
		{math.Inf(1), "item 1 has consumption rate +Inf"},
		{-3, "item 1 has consumption rate -3"},
	} {
		w := BurstWorkload(4, 128, 64, 20, 3)
		w[1].Rate = c.rate
		res, err := Run(Config{}, w)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("rate %v: unexpected error %v", c.rate, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("rate %v: Run = %+v, %v; want an error containing %q", c.rate, res, err, c.want)
		}
	}
}

// TestTimedOutRunFiresNothingPastDeadline: MaxSimTime means the same on
// Run as on RunCluster — no event past it. The burst below is still
// generating at 3.3 s; the run must stop there, with no token generated
// and no request finished after the deadline.
func TestTimedOutRunFiresNothingPastDeadline(t *testing.T) {
	const deadline = 3300 * time.Millisecond
	res, err := Run(Config{GPU: "RTX-4090", MaxSimTime: deadline}, BurstWorkload(48, 512, 1024, 20, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("a 3.3 s cap should time out this burst")
	}
	// The makespan is the latest token time or finish instant, so no
	// token and no finish lies past it.
	if res.Makespan > deadline {
		t.Errorf("makespan %v is past the %v deadline", res.Makespan, deadline)
	}
}
