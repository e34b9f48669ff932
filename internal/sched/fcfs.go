package sched

import "repro/internal/simclock"

// FCFS is the SGLang baseline: conservative first-come-first-served
// admission with prefill priority and no proactive preemption. Requests
// are admitted while their prompt fits the free KV pool (accounting for
// the prefill backlog's pending claims); memory exhaustion during decode
// is handled reactively by the engine's OOM path, exactly the behaviour
// the paper's §2.3 micro-benchmark exhibits.
//
// Chunked, it becomes the "SGLang (chunked)" baseline: admission is
// identical but prefill is split into chunks of sglangChunkTokens that
// ride along decode iterations (Sarathi-style), trading TTFT for smoother
// decode.
type FCFS struct {
	// chunkTokens bounds prompt tokens per mixed iteration; 0 disables
	// chunking.
	chunkTokens int
	// admit backs the returned Decision.Admit (see the package comment).
	admit []Admission
}

// sglangChunkTokens is the chunked baseline's prompt tokens per mixed
// iteration.
const sglangChunkTokens = 512

// fcfsHeadroom reserves a fraction of the pool at admission time so that
// running requests have room to grow before the reactive OOM path kicks
// in (SGLang's new-token ratio reservation).
const fcfsHeadroom float64 = 0.05

// NewSGLang returns the unchunked SGLang baseline.
func NewSGLang() *FCFS { return &FCFS{} }

// NewSGLangChunked returns the chunked-prefill SGLang baseline.
func NewSGLangChunked() *FCFS { return &FCFS{chunkTokens: sglangChunkTokens} }

// Name implements Scheduler.
func (f *FCFS) Name() string {
	if f.chunkTokens > 0 {
		return "sglang-chunked"
	}
	return "sglang"
}

// PrefillChunkTokens implements Scheduler.
func (f *FCFS) PrefillChunkTokens() int { return f.chunkTokens }

// Decide implements Scheduler: admit waiting requests FIFO while their
// prompts fit, and resume preempted requests (which the engine's reactive
// OOM path produced) before fresh arrivals, preferring a host-copy load
// when one exists. With nothing waiting or preempted it has nothing to
// admit until a queue changes, so it promises quiet Forever.
func (f *FCFS) Decide(v *View) Decision {
	var d Decision
	if len(v.Waiting) == 0 && len(v.Preempted) == 0 {
		d.QuietUntil = simclock.Forever
		return d
	}
	avail := v.FreeTokens - v.BacklogTokens() - int(fcfsHeadroom*float64(v.TotalTokens))
	slots := v.SlotsFree()
	admit := f.admit[:0]

	// Victims of reactive eviction resume first (FCFS by arrival among
	// them), otherwise head-of-line blocking would starve them forever.
	for _, r := range v.Preempted {
		need := r.PromptLen + r.Generated
		if need > avail || slots <= 0 {
			break
		}
		mode := ResumeRecompute
		if v.Mem != nil && v.Mem.HostBytes(r) > 0 {
			mode = ResumeLoad
		}
		admit = append(admit, Admission{Req: r, Mode: mode})
		avail -= need
		slots--
	}
	for _, r := range v.Waiting {
		if r.PromptLen > avail || slots <= 0 {
			break // strict FCFS: do not skip the head of the queue
		}
		admit = append(admit, Admission{Req: r})
		avail -= r.PromptLen
		slots--
	}
	f.admit = admit
	d.Admit = nonEmpty(admit)
	return d
}
