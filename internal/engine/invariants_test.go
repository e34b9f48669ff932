package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Property: for any random workload and any scheduler, a completed run
// conserves tokens (every request generates exactly its output length,
// and its running totals agree with its recorded per-token timeline),
// frees all KV memory, and leaves no request in a transient state.
func TestPropertyRunInvariants(t *testing.T) {
	mk := []func() (sched.Scheduler, KVPolicy){
		func() (sched.Scheduler, KVPolicy) { return sched.NewSGLang(), BaselineKVPolicy() },
		func() (sched.Scheduler, KVPolicy) { return sched.NewSGLangChunked(), BaselineKVPolicy() },
		func() (sched.Scheduler, KVPolicy) { return sched.NewAndes(), BaselineKVPolicy() },
		func() (sched.Scheduler, KVPolicy) {
			return core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()
		},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 3
		var w trace.Workload
		w.Name = "prop"
		at := simclock.Time(0)
		for i := 0; i < n; i++ {
			at = at.Add(simclock.Duration(rng.Float64() * 2))
			w.Items = append(w.Items, trace.Item{
				Arrival:   at,
				PromptLen: rng.Intn(256) + 16,
				OutputLen: rng.Intn(256) + 16,
				Rate:      float64(rng.Intn(30) + 5),
			})
		}
		s, kv := mk[rng.Intn(len(mk))]()
		e, err := NewStandalone(testConfig(s, kv))
		if err != nil {
			return false
		}
		res := Drive(e, w, 0)
		if res.TimedOut {
			return false
		}
		if res.Report.Finished != n {
			return false
		}
		for i, r := range res.Requests {
			if r.Generated != w.Items[i].OutputLen {
				return false
			}
			if !onlineMatchesTimeline(r) {
				return false
			}
			if r.RebufferTotal < 0 {
				return false
			}
		}
		// All device memory returned.
		if e.Mem().FreePages() != e.Mem().TotalPages() {
			return false
		}
		wq, bq, rq, pq, lq := e.QueueLengths()
		return wq+bq+rq+pq+lq == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: raw throughput over a fixed workload never differs by more
// than the preemption overhead would explain — effective throughput is
// always <= raw throughput for every system.
func TestPropertyEffectiveLEQRaw(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 8)
		if n < 0 {
			n = -n
		}
		w := trace.Burst("p", n+4, 0,
			trace.FixedLengths{Prompt: 128, Output: 128}, trace.FixedRate(15), seed)
		e, err := NewStandalone(testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()))
		if err != nil {
			return false
		}
		res := Drive(e, w, 0)
		return res.Report.EffectiveThroughput <= res.Report.Throughput+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// onlineMatchesTimeline reports whether a request's running token totals
// equal what its recorded timeline gives: one entry per generated token,
// first and last token instants at its ends, and Effective the in-order
// weight sum over the recorded buffer occupancies, bit for bit.
func onlineMatchesTimeline(r *request.Request) bool {
	tl := r.Timeline
	if len(tl.Times) != r.Generated || len(tl.Buffers) != r.Generated {
		return false
	}
	var effective float64
	for _, b := range tl.Buffers {
		effective += request.TokenWeight(int(b), r.OutputLen)
	}
	if r.Generated > 0 && (tl.Times[0] != r.FirstTokenAt || tl.Times[r.Generated-1] != r.LastTokenAt) {
		return false
	}
	return effective == r.Effective
}
