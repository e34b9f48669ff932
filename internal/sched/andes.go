package sched

import (
	"math"
	"sort"
	"time"

	"repro/internal/request"
	"repro/internal/simclock"
)

// Andes approximates the Andes QoE-aware scheduler (Liu et al.), the
// paper's strongest baseline, as the paper itself implemented it for
// benchmarking: preemptive priority scheduling driven by per-request QoE
// urgency, with recompute-based preemption (evicted KV is discarded and
// rebuilt on resume) and no coordination with the memory manager.
//
// Each quantum it scores every request by expected QoE loss if left
// unserved — starved newcomers and streams with nearly empty buffers score
// high, streams with fat buffers score low — then selects the
// highest-scoring subset that fits GPU memory, preempting running requests
// that fall out of the subset. Because preemption discards KV, each
// context switch costs a full recompute, which is precisely the
// inefficiency TokenFlow's hierarchical memory manager removes.
type Andes struct {
	lastDecision simclock.Time
	decided      bool
	// admit and preempt back the returned Decision's slices (see the
	// package comment).
	admit   []Admission
	preempt []*request.Request
}

// Andes tuning used in the paper's comparisons.
const (
	// andesQuantum is the rescheduling period.
	andesQuantum = time.Second

	// andesTTFTTarget is the responsiveness SLO; waiting requests gain
	// urgency as they approach and exceed it (the 1.3s threshold of §2.2).
	andesTTFTTarget = 1300 * time.Millisecond

	// andesBufferHorizon is the playback depth (in seconds of client
	// consumption) Andes tries to maintain per stream; running requests
	// with more buffered than this are preemption candidates.
	andesBufferHorizon float64 = 4.0

	// andesProtectSeconds guards streams whose buffer is below this many
	// seconds from preemption (preempting them would stall playback
	// within the quantum).
	andesProtectSeconds float64 = 2.0
)

// NewAndes returns the Andes baseline with the defaults used in the
// paper's comparisons.
func NewAndes() *Andes { return &Andes{} }

// Name implements Scheduler.
func (a *Andes) Name() string { return "andes" }

// PrefillChunkTokens implements Scheduler.
func (a *Andes) PrefillChunkTokens() int { return 0 }

// score is the expected QoE loss rate of leaving a request unserved.
func (a *Andes) score(v *View, r *request.Request, running bool) float64 {
	if r.Generated == 0 {
		// Not yet responsive: urgency grows with queueing relative to the
		// TTFT target.
		wait := v.Now.Sub(r.Arrival).Seconds()
		return 2 + wait/andesTTFTTarget.Seconds()
	}
	// Streaming: urgency decays exponentially with buffered playback
	// seconds — an empty buffer stalls within 1/r seconds.
	buf := r.BufferSeconds()
	s := 2 * math.Exp(-buf/andesBufferHorizon)
	if running {
		// Mild stickiness: switching costs a recompute, so prefer keeping
		// a running request over resuming an equal-urgency preempted one.
		s *= 1.1
	}
	return s
}

// NextDecisionTime implements Waker: between quanta Decide only runs the
// FCFS admit-only pass, so absent other events the next decision change is
// the full reschedule at quantum expiry.
func (a *Andes) NextDecisionTime(now simclock.Time) simclock.Time {
	if !a.decided {
		return simclock.Forever
	}
	return a.lastDecision.Add(andesQuantum)
}

// Decide implements Scheduler. With nothing waiting, the admit-only pass
// between quanta has nothing to do, so the decision promises quiet until
// the quantum ends.
func (a *Andes) Decide(v *View) Decision {
	d := a.decide(v)
	if len(v.Waiting) == 0 {
		d.QuietUntil = a.lastDecision.Add(andesQuantum)
	}
	return d
}

func (a *Andes) decide(v *View) Decision {
	if a.decided && v.Now.Sub(a.lastDecision) < andesQuantum {
		// Between quanta: only admit into clearly free memory, FCFS.
		return a.admitOnly(v)
	}
	a.lastDecision = v.Now
	a.decided = true

	type cand struct {
		req     *request.Request
		score   float64
		tokens  int
		running bool
	}
	var cands []cand
	for _, r := range v.Running {
		cands = append(cands, cand{r, a.score(v, r, true), r.ContextLen() + r.RemainingOutput(), true})
	}
	for _, r := range v.Preempted {
		cands = append(cands, cand{r, a.score(v, r, false), r.PromptLen + r.Generated + r.RemainingOutput(), false})
	}
	for _, r := range v.Waiting {
		cands = append(cands, cand{r, a.score(v, r, false), r.FullContextLen(), false})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	// Knapsack-greedy: pick by score while the KV pool fits the selected
	// contexts (backlog claims included) and the batch cap has slots.
	budget := v.TotalTokens - v.BacklogTokens()
	slots := 1 << 30
	if v.MaxBatch > 0 {
		slots = v.MaxBatch - len(v.Loading) - len(v.PrefillBacklog)
	}
	selected := make(map[int]bool)
	for _, c := range cands {
		if c.tokens > budget || slots <= 0 {
			continue
		}
		selected[c.req.ID] = true
		budget -= c.tokens
		slots--
	}

	preempt, admit := a.preempt[:0], a.admit[:0]
	for _, r := range v.Running {
		if selected[r.ID] {
			continue
		}
		if !r.PrefillDone() || r.BufferSeconds() < andesProtectSeconds {
			continue // never strand a stream mid-prefill or near-empty
		}
		preempt = append(preempt, r)
	}
	for _, c := range cands {
		if c.running || !selected[c.req.ID] {
			continue
		}
		// Andes preemption is recompute-based: no host copy exists.
		admit = append(admit, Admission{Req: c.req, Mode: ResumeRecompute})
	}
	a.preempt, a.admit = preempt, admit
	return Decision{Admit: nonEmpty(admit), Preempt: nonEmpty(preempt)}
}

// admitOnly performs conservative FCFS admission between quanta.
func (a *Andes) admitOnly(v *View) Decision {
	admit := a.admit[:0]
	avail := v.FreeTokens - v.BacklogTokens()
	slots := v.SlotsFree()
	for _, r := range v.Waiting {
		if r.PromptLen > avail || slots <= 0 {
			break
		}
		admit = append(admit, Admission{Req: r})
		avail -= r.PromptLen
		slots--
	}
	a.admit = admit
	return Decision{Admit: nonEmpty(admit)}
}
