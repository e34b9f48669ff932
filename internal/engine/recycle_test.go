package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/request"
)

// TestServeAllocatesNothing holds a warmed engine's inject → decide →
// admit → prefill → decode → finish cycle to zero allocations: the
// prefill job, the KV entry and the TokenFlow scheduler's decision all
// come from buffers and free lists the engine, manager and scheduler own.
// (The pin half of the lifecycle is kvcache's TestPrefixLifecycleAllocatesNothing.)
func TestServeAllocatesNothing(t *testing.T) {
	e, err := NewStandalone(testConfig(core.MustNew(core.DefaultConfig()), TokenFlowKVPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	reqs := make([]*request.Request, runs+3) // AllocsPerRun adds one warm-up run
	for i := range reqs {
		reqs[i] = request.New(i+1, 0, 64+i%32, 8, 0)
	}
	turn := 0
	serve := func() {
		r := reqs[turn]
		turn++
		now := e.clock.Now()
		r.Arrival = now
		e.Inject(r, now)
		e.clock.Run()
		if r.State != request.StateFinished {
			t.Fatalf("request %d is %v", r.ID, r.State)
		}
	}
	serve()
	serve()
	if allocs := testing.AllocsPerRun(runs, serve); allocs != 0 {
		t.Errorf("a warmed request lifecycle allocated %v times, want 0", allocs)
	}
}
