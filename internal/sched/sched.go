// Package sched defines the scheduling surface of the serving engine and
// implements the paper's baseline schedulers: SGLang's conservative FCFS
// with prefill priority, SGLang with chunked prefill, and Andes-style
// QoE-aware preemptive scheduling with recompute-based preemption (the
// baseline implementation described in §6 of the paper).
//
// The TokenFlow scheduler itself — the paper's primary contribution — lives
// in internal/core and implements the same Scheduler interface.
//
// Two hooks let the event-driven engine call Decide only when its answer
// could differ. Waker covers an idle engine: a quantum-gated scheduler
// reports when time alone could change its answer, and the engine arms one
// wakeup there. Decision.QuietUntil covers a busy one: it promises that
// every later Decide before that instant, over a view whose queues
// (Waiting, PrefillBacklog, Running, Preempted, Loading) hold the same
// requests, returns an empty decision and changes no scheduler state but
// its counters. Token deliveries, read ticks, free memory and the profiled
// estimates may all move meanwhile; the promise must hold for every such
// view. The engine keeps the horizon until any queue changes and, on an
// iteration boundary before it, skips building the view and calling
// Decide. Zero makes no promise; simclock.Forever promises quiet until a
// queue changes.
//
// A Decision's slices belong to the scheduler that returned it: a
// scheduler refills the same buffers on every call, so a decision is valid
// until the next Decide on the same scheduler. The engine consumes each
// decision inside the kick that asked for it, before any later Decide; a
// caller that keeps one past the next call must copy it.
package sched

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/kvcache"
	"repro/internal/request"
	"repro/internal/simclock"
)

// View is the engine state a scheduler observes at an iteration boundary.
// Slices are owned by the engine; schedulers must not mutate them.
type View struct {
	Now simclock.Time

	// Waiting holds queued requests that were never admitted, FIFO by
	// arrival. PrefillBacklog holds requests already admitted and waiting
	// for prefill compute (they hold no memory yet). Running requests are
	// resident and decoding. Preempted requests wait off-device for
	// resumption. Loading requests have a resume transfer in flight.
	Waiting        []*request.Request
	PrefillBacklog []*request.Request
	Running        []*request.Request
	Preempted      []*request.Request
	Loading        []*request.Request

	// FreeTokens and TotalTokens describe the KV pool in token units.
	FreeTokens  int
	TotalTokens int

	// MaxBatch is the engine's concurrent-decode cap (the B of the §3.3
	// formulation); 0 means unbounded.
	MaxBatch int

	// Mem exposes residency and transfer-latency estimates; Cost predicts
	// iteration latencies; AvgIterTime is the profiled recent decode
	// iteration latency (the sliding-window estimate of §4.2.3).
	Mem         *kvcache.Manager
	Cost        *gpu.CostModel
	AvgIterTime time.Duration

	// AvgPrefillPerToken is the profiled per-token prefill latency used to
	// estimate recomputation cost (§4.2.3).
	AvgPrefillPerToken time.Duration
}

// SlotsFree reports how many more requests can enter service before the
// engine's concurrency cap is reached; a very large number when MaxBatch
// is unbounded.
func (v *View) SlotsFree() int {
	if v.MaxBatch <= 0 {
		return 1 << 30
	}
	n := v.MaxBatch - len(v.Running) - len(v.Loading) - len(v.PrefillBacklog)
	if n < 0 {
		n = 0
	}
	return n
}

// BacklogTokens reports the context tokens the prefill backlog will claim.
func (v *View) BacklogTokens() int {
	n := 0
	for _, r := range v.PrefillBacklog {
		n += r.ContextLen() + r.PromptLen - r.PrefilledTokens
	}
	return n
}

// RecomputeEstimate predicts the prefill time to rebuild a request's
// context from scratch using the profiled per-token latency.
func (v *View) RecomputeEstimate(r *request.Request) time.Duration {
	tokens := r.PromptLen + r.Generated
	if v.AvgPrefillPerToken > 0 {
		return time.Duration(tokens) * v.AvgPrefillPerToken
	}
	return v.Cost.PrefillTime(tokens)
}

// ResumeMode selects how a preempted request re-enters the device.
type ResumeMode int

const (
	// ResumeLoad transfers the host KV copy back over PCIe.
	ResumeLoad ResumeMode = iota
	// ResumeRecompute rebuilds the KV cache with a fresh prefill over the
	// prompt plus already-generated tokens.
	ResumeRecompute
)

func (m ResumeMode) String() string {
	if m == ResumeLoad {
		return "load"
	}
	return "recompute"
}

// Admission is one request entering service: a fresh prefill for waiting
// requests, or a resume (with the chosen mode) for preempted ones.
type Admission struct {
	Req  *request.Request
	Mode ResumeMode
}

// Decision is a scheduler's output for one boundary. The engine applies
// preemptions first, then admissions in order, skipping any that no longer
// fit.
type Decision struct {
	Admit   []Admission
	Preempt []*request.Request

	// QuietUntil is the scheduler's quiet horizon (zero: no promise). See
	// the package documentation.
	QuietUntil simclock.Time
}

// nonEmpty returns s, or nil when it is empty, so a decision built in a
// reused buffer reads exactly like one built by appending to nil.
func nonEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// Scheduler makes admission/preemption decisions at iteration boundaries.
type Scheduler interface {
	// Name identifies the scheduler in reports ("sglang", "andes", ...).
	Name() string

	// Decide inspects the view and returns the scheduling decision.
	Decide(v *View) Decision

	// PrefillChunkTokens bounds the prompt tokens processed per iteration
	// when mixing prefill with decode (chunked prefill); zero selects
	// unchunked prefill-priority iterations.
	PrefillChunkTokens() int
}

// Waker is an optional Scheduler extension for quantum-gated policies. The
// engine is event-driven: an idle engine with outstanding work retries a
// declined decision only when some state changes (a transfer completes, KV
// reclaim drains, an iteration finishes) — never on a polling interval.
// The one retry trigger no callback covers is the passage of time itself:
// a scheduler whose Decide is gated on a rescheduling quantum may return a
// different answer at quantum expiry with no other state change. Such
// schedulers implement Waker, and the engine schedules exactly one wakeup
// at the reported instant.
type Waker interface {
	// NextDecisionTime reports the next virtual time at which Decide's
	// answer could change purely because time passed (typically the end of
	// the current rescheduling quantum), or Forever when only a state
	// change can alter it. Instants at or before now are treated as
	// Forever: Decide has already run at now, so an immediate retry cannot
	// differ.
	NextDecisionTime(now simclock.Time) simclock.Time
}
