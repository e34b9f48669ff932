package sched

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/simclock"
)

func testView(t *testing.T, now simclock.Time) *View {
	t.Helper()
	cost, err := gpu.NewCostModel(gpu.H200, model.Llama3_8B)
	if err != nil {
		t.Fatal(err)
	}
	return &View{
		Now:         now,
		FreeTokens:  10_000,
		TotalTokens: 20_000,
		Cost:        cost,
		AvgIterTime: 20 * time.Millisecond,
	}
}

func waiting(id int, arrival simclock.Time, prompt int) *request.Request {
	return request.New(id, arrival, prompt, 512, 20)
}

func TestFCFSNames(t *testing.T) {
	if NewSGLang().Name() != "sglang" {
		t.Error("plain name")
	}
	if NewSGLangChunked().Name() != "sglang-chunked" {
		t.Error("chunked name")
	}
	if NewSGLangChunked().PrefillChunkTokens() != 512 {
		t.Error("chunk should be 512")
	}
	if NewSGLang().PrefillChunkTokens() != 0 {
		t.Error("plain SGLang is unchunked")
	}
}

func TestFCFSAdmitsInOrderUntilFull(t *testing.T) {
	f := NewSGLang()
	v := testView(t, 0)
	v.Waiting = []*request.Request{
		waiting(1, 0, 4000),
		waiting(2, 0, 4000),
		waiting(3, 0, 4000),
	}
	d := f.Decide(v)
	// Headroom 5% of 20000 = 1000; avail = 9000 -> two 4000-token prompts.
	if len(d.Admit) != 2 || d.Admit[0].Req.ID != 1 || d.Admit[1].Req.ID != 2 {
		t.Fatalf("admit = %v", d.Admit)
	}
	if len(d.Preempt) != 0 {
		t.Error("FCFS never preempts")
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// The defining FCFS pathology: a huge head request blocks small ones.
	f := NewSGLang()
	v := testView(t, 0)
	v.Waiting = []*request.Request{
		waiting(1, 0, 50_000), // can never fit
		waiting(2, 0, 100),
	}
	d := f.Decide(v)
	if len(d.Admit) != 0 {
		t.Errorf("strict FCFS must not skip the head: %v", d.Admit)
	}
}

func TestFCFSAccountsBacklog(t *testing.T) {
	f := NewSGLang()
	v := testView(t, 0)
	v.PrefillBacklog = []*request.Request{waiting(9, 0, 8000)}
	v.Waiting = []*request.Request{waiting(1, 0, 4000)}
	d := f.Decide(v)
	// avail = 10000 - 8000 - 1000 = 1000 < 4000.
	if len(d.Admit) != 0 {
		t.Errorf("backlog claims should block admission: %v", d.Admit)
	}
}

func TestFCFSResumesEvictedFirst(t *testing.T) {
	f := NewSGLang()
	v := testView(t, simclock.FromSeconds(1))
	pre := waiting(5, 0, 500)
	pre.State = request.StatePreempted
	v.Preempted = []*request.Request{pre}
	v.Waiting = []*request.Request{waiting(6, 0, 500)}
	d := f.Decide(v)
	if len(d.Admit) != 2 || d.Admit[0].Req.ID != 5 {
		t.Fatalf("preempted request should resume first: %v", d.Admit)
	}
	if d.Admit[0].Mode != ResumeRecompute {
		t.Error("without a host copy the resume must recompute")
	}
}

func TestViewBacklogTokens(t *testing.T) {
	v := testView(t, 0)
	r := waiting(1, 0, 1000)
	v.PrefillBacklog = []*request.Request{r}
	if got := v.BacklogTokens(); got != 1000 {
		t.Errorf("backlog tokens = %d", got)
	}
	// Partially prefilled: context 256, remaining prompt 744.
	r.PrefilledTokens = 256
	if got := v.BacklogTokens(); got != 1000 {
		t.Errorf("backlog tokens with partial prefill = %d, want 1000 (256 held + 744 pending)", got)
	}
}

func TestViewRecomputeEstimate(t *testing.T) {
	v := testView(t, 0)
	r := waiting(1, 0, 1000)
	clock := simclock.New()
	r.PrefilledTokens = 1000
	r.DeliverTokens(clock, 0, 200)
	r.CancelConsumption(clock)
	// Without a profiled per-token latency, falls back to the cost model.
	want := v.Cost.PrefillTime(1200)
	if got := v.RecomputeEstimate(r); got != want {
		t.Errorf("estimate = %v, want %v", got, want)
	}
	v.AvgPrefillPerToken = 50 * time.Microsecond
	if got := v.RecomputeEstimate(r); got != 1200*50*time.Microsecond {
		t.Errorf("profiled estimate = %v", got)
	}
}

func TestResumeModeString(t *testing.T) {
	if ResumeLoad.String() != "load" || ResumeRecompute.String() != "recompute" {
		t.Error("mode strings")
	}
}

func TestAndesPrefersStarvedOverFat(t *testing.T) {
	a := NewAndes()
	v := testView(t, simclock.FromSeconds(10))
	clock := simclock.New()
	fat := request.New(1, 0, 256, 2000, 20)
	fat.State = request.StateRunning
	fat.PrefilledTokens = 256
	fat.DeliverTokens(clock, 0, 400) // ~20s of buffer
	fat.CancelConsumption(clock)
	v.Running = []*request.Request{fat}
	// Memory only fits one full request.
	v.TotalTokens = 3000
	v.FreeTokens = 3000 - fat.ContextLen()
	starved := request.New(2, simclock.FromSeconds(5), 400, 600, 20)
	v.Waiting = []*request.Request{starved}
	d := a.Decide(v)
	if len(d.Preempt) != 1 || d.Preempt[0].ID != 1 {
		t.Fatalf("Andes should preempt the fat stream: %+v", d.Preempt)
	}
	if len(d.Admit) != 1 || d.Admit[0].Req.ID != 2 || d.Admit[0].Mode != ResumeRecompute {
		t.Fatalf("Andes should admit the starved request via recompute: %+v", d.Admit)
	}
}

func TestAndesProtectsThinBuffers(t *testing.T) {
	a := NewAndes()
	v := testView(t, simclock.FromSeconds(10))
	clock := simclock.New()
	thin := request.New(1, 0, 256, 2000, 20)
	thin.State = request.StateRunning
	thin.PrefilledTokens = 256
	thin.DeliverTokens(clock, 0, 20) // ~1s of buffer < 2s protection
	thin.CancelConsumption(clock)
	v.Running = []*request.Request{thin}
	v.TotalTokens = 3000
	v.FreeTokens = 3000 - thin.ContextLen()
	v.Waiting = []*request.Request{request.New(2, simclock.FromSeconds(5), 2600, 600, 20)}
	d := a.Decide(v)
	if len(d.Preempt) != 0 {
		t.Errorf("thin buffer must not be preempted: %+v", d.Preempt)
	}
}

func TestAndesQuantumGating(t *testing.T) {
	a := NewAndes()
	v := testView(t, simclock.FromSeconds(1))
	v.Waiting = []*request.Request{waiting(1, 0, 500)}
	d1 := a.Decide(v)
	if len(d1.Admit) != 1 {
		t.Fatal("first decide should admit")
	}
	// 100ms later with a preemption-worthy situation: between quanta only
	// plain admission happens, never preemption.
	clock := simclock.New()
	fat := request.New(3, 0, 256, 2000, 20)
	fat.State = request.StateRunning
	fat.PrefilledTokens = 256
	fat.DeliverTokens(clock, 0, 400)
	fat.CancelConsumption(clock)
	v2 := testView(t, simclock.FromSeconds(1.1))
	v2.Running = []*request.Request{fat}
	v2.Waiting = []*request.Request{waiting(4, simclock.FromSeconds(1), 500)}
	d2 := a.Decide(v2)
	if len(d2.Preempt) != 0 {
		t.Error("no preemption between quanta")
	}
	if len(d2.Admit) != 1 {
		t.Error("free-memory admission should still happen between quanta")
	}
}

func TestAndesScoreOrdering(t *testing.T) {
	a := NewAndes()
	v := testView(t, simclock.FromSeconds(30))
	longWait := request.New(1, 0, 256, 512, 20)
	shortWait := request.New(2, simclock.FromSeconds(29), 256, 512, 20)
	if a.score(v, longWait, false) <= a.score(v, shortWait, false) {
		t.Error("longer-queued request should score higher")
	}
}

// TestQuietHorizons pins each baseline's Decision.QuietUntil: FCFS
// promises quiet Forever with nothing waiting or preempted and nothing
// otherwise; Andes promises the end of its quantum whenever nothing waits.
func TestQuietHorizons(t *testing.T) {
	clock := simclock.New()
	victim := request.New(9, 0, 256, 512, 20)
	victim.State = request.StatePreempted
	victim.DeliverTokens(clock, 0, 10)
	victim.CancelConsumption(clock)

	f := NewSGLangChunked()
	v := testView(t, simclock.FromSeconds(3))
	if d := f.Decide(v); d.QuietUntil != simclock.Forever || len(d.Admit) != 0 {
		t.Errorf("FCFS with empty queues: %+v, want an empty decision quiet Forever", d)
	}
	v.Preempted = []*request.Request{victim}
	if d := f.Decide(v); d.QuietUntil != 0 {
		t.Errorf("FCFS with a preempted request promised quiet until %v", d.QuietUntil)
	}
	v.Preempted = nil
	v.Waiting = []*request.Request{waiting(1, 0, 30_000)} // never fits
	if d := f.Decide(v); d.QuietUntil != 0 || len(d.Admit) != 0 {
		t.Errorf("FCFS with a blocked head: %+v, want no admission and no promise", d)
	}

	a := NewAndes()
	v = testView(t, simclock.FromSeconds(3))
	v.Preempted = []*request.Request{victim}
	d := a.Decide(v) // a full reschedule opens the quantum at 3 s
	if want := simclock.FromSeconds(4); d.QuietUntil != want {
		t.Errorf("Andes after a full reschedule: quiet until %v, want %v", d.QuietUntil, want)
	}
	v.Now = simclock.FromSeconds(3.5)
	if d := a.Decide(v); d.QuietUntil != simclock.FromSeconds(4) || len(d.Admit)+len(d.Preempt) != 0 {
		t.Errorf("Andes between quanta: %+v, want an empty decision quiet until 4s", d)
	}
	v.Waiting = []*request.Request{waiting(2, 0, 500)}
	if d := a.Decide(v); d.QuietUntil != 0 || len(d.Admit) != 1 {
		t.Errorf("Andes with a waiting request: %+v, want one admission and no promise", d)
	}
}
