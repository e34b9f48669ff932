package engine

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// These tests cover the unified residency model: the session prefix cache
// is not a compute-side shortcut but pinned pages in the device pool —
// charged, adopted by follow-up turns, and evicted under live-request
// pressure.

// TestPrefixCacheMissOnTruncatedPrompt: a follow-up whose prompt is not
// longer than the cached context means the conversation was truncated
// upstream — the prefix no longer aligns, so no hit may be granted.
func TestPrefixCacheMissOnTruncatedPrompt(t *testing.T) {
	w := trace.Workload{Name: "truncated", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1},
		// Turn 1's context is 320 tokens; a 300-token turn-2 prompt cannot
		// extend it.
		{Arrival: simclock.FromSeconds(30), PromptLen: 300, OutputLen: 64, Rate: 20, Session: 1, Turn: 2},
	}}
	res := runWorkload(t, testConfig(sched.NewSGLang(), BaselineKVPolicy()), w)
	if res.PrefixHits != 0 {
		t.Errorf("truncated session granted %d prefix hits, want 0", res.PrefixHits)
	}
	if res.Report.Finished != 2 {
		t.Errorf("finished %d/2", res.Report.Finished)
	}
}

// twoTurnSession is one session: a 256-token opening prompt, then a
// follow-up whose 384-token prompt extends the first turn's full context
// (256 + 64 output + 64 new), arriving well after the first turn drains.
func twoTurnSession() trace.Workload {
	return trace.Workload{Name: "2turn", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1},
		{Arrival: simclock.FromSeconds(30), PromptLen: 384, OutputLen: 64, Rate: 20, Session: 1, Turn: 2},
	}}
}

// TestEnginePrefixCacheShortensPrefill runs a two-turn session through one
// engine and checks the second turn hit the cache: its prefill covered
// turn 1's whole context and adopted the pin.
func TestEnginePrefixCacheShortensPrefill(t *testing.T) {
	w := twoTurnSession()
	res := runWorkload(t, testConfig(sched.NewSGLang(), BaselineKVPolicy()), w)
	if res.PrefixHits != 1 {
		t.Fatalf("prefix hits = %d, want 1", res.PrefixHits)
	}
	// Turn 1 context: 256 prompt + 64 output = 320 tokens, all covered.
	if res.PrefixHitTokens != 320 {
		t.Errorf("prefix hit tokens = %d, want 320", res.PrefixHitTokens)
	}
	// The hit adopted the pin instead of double-charging the pool.
	if res.KV.PrefixAdoptions != 1 {
		t.Errorf("prefix adoptions = %d, want 1", res.KV.PrefixAdoptions)
	}
}

// TestPrefixResidencyChargedToPool: a finished session turn leaves its
// context pinned in the page pool — visible as pinned pages, not free
// memory.
func TestPrefixResidencyChargedToPool(t *testing.T) {
	res := runWorkload(t, testConfig(sched.NewSGLang(), BaselineKVPolicy()), twoTurnSession())
	// Turn 2's context (384+64 = 448 tokens = 28 pages) remains pinned at
	// the end of the run.
	if res.KV.PinnedPages == 0 {
		t.Error("finished session should leave pinned prefix pages")
	}
	if res.KV.PeakPinnedPages < res.KV.PinnedPages {
		t.Errorf("peak pinned %d < final pinned %d", res.KV.PeakPinnedPages, res.KV.PinnedPages)
	}
	if res.KV.PrefixPins != 2 {
		t.Errorf("prefix pins = %d, want 2 (one per finished turn)", res.KV.PrefixPins)
	}
}

// TestPrefixEvictionUnderPressure is the residency model's stress case: a
// session pins its context, a sessionless burst overcommits the pool, and
// the pin must yield. At every event the pool must stay within capacity,
// the pin must be evicted (live requests outrank cached prefixes), and the
// session's next turn re-prefills at full cost.
func TestPrefixEvictionUnderPressure(t *testing.T) {
	w := trace.Workload{Name: "pressure"}
	// Turn 1 pins 320 tokens once it finishes.
	w.Items = append(w.Items, trace.Item{
		Arrival: 0, PromptLen: 256, OutputLen: 64, Rate: 20, Session: 1, Turn: 1,
	})
	// A burst that wants 8 × 448 = 3584 tokens of a ~2400-token pool.
	for i := 0; i < 8; i++ {
		w.Items = append(w.Items, trace.Item{
			Arrival: simclock.FromSeconds(20), PromptLen: 192, OutputLen: 256, Rate: 20,
		})
	}
	// Turn 2 arrives after the burst flushed the pin: full-cost prefill.
	w.Items = append(w.Items, trace.Item{
		Arrival: simclock.FromSeconds(120), PromptLen: 384, OutputLen: 64, Rate: 20,
		Session: 1, Turn: 2,
	})

	e, err := NewStandalone(testConfig(sched.NewSGLang(), BaselineKVPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	prime(e, w, 0)
	for e.clock.Step() {
		free, used, total := e.mem.FreePages(), e.mem.UsedPages(), e.mem.TotalPages()
		if free < 0 || used > total {
			t.Fatalf("pool overcommitted at %v: free=%d used=%d total=%d",
				e.clock.Now(), free, used, total)
		}
	}
	res := e.Collect()
	if res.Report.Finished != len(w.Items) {
		t.Fatalf("finished %d/%d", res.Report.Finished, len(w.Items))
	}
	if res.KV.PrefixEvictions == 0 {
		t.Error("the burst should have evicted the pinned prefix")
	}
	// The evicted session re-prefilled at full cost: no hit was granted.
	if res.PrefixHits != 0 {
		t.Errorf("prefix hits = %d, want 0 (pin evicted before turn 2)", res.PrefixHits)
	}
	if r := res.Requests[len(res.Requests)-1]; r.Generated != 64 {
		t.Errorf("turn 2 generated %d/64 tokens", r.Generated)
	}
}
