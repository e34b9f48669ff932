package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Scheduler is the TokenFlow buffer-aware scheduler.
type Scheduler struct {
	cfg Config

	lastFull simclock.Time
	ranFull  bool

	// Stats for the evaluation's overhead and behaviour analysis.
	// LightPasses counts only the light passes that ran: the engine skips
	// Decide on boundaries before a decision's QuietUntil.
	FullReschedules int64
	LightPasses     int64
	FallbackPasses  int64
	SwapsApplied    int64

	// Pass scratch, grown on first use and reused by every later pass, so
	// a warmed pass allocates nothing. admit and preempt back the returned
	// Decision's slices, valid until the next Decide (see the sched package
	// comment); pre is fcfsFallback's arrival-ordered copy of Preempted.
	// The scratch makes a Scheduler unsafe for concurrent use: each engine
	// owns its own.
	admitted  []*request.Request
	cands     []candidate
	order     []int
	sel, best []bool
	ordered   []candidate
	admit     []sched.Admission
	preempt   []*request.Request
	pre       []*request.Request
}

// New constructs the scheduler, normalizing the config.
func New(cfg Config) (*Scheduler, error) {
	n, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Scheduler{cfg: n}, nil
}

// MustNew is New for compile-time-constant configs in tests and examples.
func MustNew(cfg Config) *Scheduler {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the normalized configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// ForceFullPass clears the interval gate so the next Decide runs a full
// working-set + buffer-balancing pass; used by overhead benchmarks.
func (s *Scheduler) ForceFullPass() { s.ranFull = false }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "tokenflow" }

// PrefillChunkTokens implements sched.Scheduler. TokenFlow partitions
// prefill batches dynamically in the engine (§4.2.3); the scheduler itself
// runs unchunked prefill-priority iterations like its SGLang substrate.
func (s *Scheduler) PrefillChunkTokens() int { return 0 }

// NextDecisionTime implements sched.Waker: while the interval gate holds,
// a stressed system gets only light passes, so absent other events the
// next decision change is the full buffer-balancing pass at the end of the
// current RescheduleInterval.
func (s *Scheduler) NextDecisionTime(now simclock.Time) simclock.Time {
	if !s.ranFull {
		return simclock.Forever
	}
	return s.lastFull.Add(s.cfg.RescheduleInterval)
}

// Decide implements sched.Scheduler with the two-phase algorithm of §4.2:
// a full working-set determination and buffer-balancing pass every
// RescheduleInterval while the system is stressed, and a cheap prefill-
// first pass otherwise.
//
// With nothing waiting or preempted the light pass has nothing to admit,
// so the decision promises quiet (sched.Decision.QuietUntil) until a full
// pass could run: the later of the interval gate's expiry and the first
// instant a running stream's buffer could drop below T_critical.
func (s *Scheduler) Decide(v *sched.View) sched.Decision {
	if len(v.Waiting) > 0 || len(v.Preempted) > 0 {
		return s.decide(v, true)
	}
	critical := s.criticalAt(v)
	d := s.decide(v, critical <= v.Now)
	d.QuietUntil = critical
	if s.ranFull {
		d.QuietUntil = max(critical, s.lastFull.Add(s.cfg.RescheduleInterval))
	}
	return d
}

func (s *Scheduler) decide(v *sched.View, stressed bool) sched.Decision {
	if !stressed {
		s.LightPasses++
		return s.lightPass(v)
	}
	if s.ranFull && v.Now.Sub(s.lastFull) < s.cfg.RescheduleInterval {
		s.LightPasses++
		return s.lightPass(v)
	}
	s.ranFull = true
	s.lastFull = v.Now

	if s.overloaded(v) {
		s.FallbackPasses++
		return s.fcfsFallback(v)
	}
	s.FullReschedules++
	return s.fullPass(v)
}

// criticalAt reports the first instant at which a running stream's buffer
// could be below T_critical (§4.2.1's stress condition) with no further
// delivery: v.Now when one is below already, Forever when none can get
// there.
func (s *Scheduler) criticalAt(v *sched.View) simclock.Time {
	at := simclock.Forever
	for _, r := range v.Running {
		if r.Generated == 0 || r.GenerationDone() {
			continue
		}
		if r.BufferSeconds() < criticalBufferSeconds {
			return v.Now
		}
		at = min(at, r.BufferBelowAt(v.Now, criticalBufferSeconds))
	}
	return at
}

// swapCycleSeconds estimates τ_evict + τ_load + τ_schedule for a candidate
// preemption-resumption cycle of request r, from the memory manager's live
// profiled transfer estimates (§4.2.1).
func (s *Scheduler) swapCycleSeconds(v *sched.View, r *request.Request) float64 {
	cycle := s.cfg.RescheduleInterval.Seconds() // τ_schedule: next full pass
	if v.Mem != nil {
		cycle += v.Mem.EstimateEvict(r, v.Now).Seconds()
		cycle += v.Mem.EstimateLoad(r, v.Now).Seconds()
	}
	return cycle
}

// canSurviveSwap is the admission/victim criterion
// b_rem ≥ μ·r_i·(τ_evict+τ_load+τ_schedule): the stream's buffer must
// cover a full preemption-resumption cycle with safety factor μ.
func (s *Scheduler) canSurviveSwap(v *sched.View, r *request.Request) bool {
	if r.Rate <= 0 {
		// Instant consumers hold no buffer; preempting them only delays
		// completion, so they are always swappable.
		return true
	}
	need := s.cfg.BufferConservativeness * r.Rate * s.swapCycleSeconds(v, r)
	return float64(r.BufferLen()) >= need
}

// lightPass is the non-stressed path: prefill-first FCFS admission into
// free memory, plus urgent resumes of preempted streams about to starve.
func (s *Scheduler) lightPass(v *sched.View) sched.Decision {
	admit := s.admit[:0]
	avail := v.FreeTokens - v.BacklogTokens()
	slots := v.SlotsFree()
	for _, r := range v.Preempted {
		if !s.resumeUrgent(v, r) {
			continue
		}
		need := r.PromptLen + r.Generated
		if need > avail || slots <= 0 {
			continue
		}
		admit = append(admit, sched.Admission{Req: r, Mode: s.resumeMode(v, r)})
		avail -= need
		slots--
	}
	for _, r := range v.Waiting {
		if r.PromptLen > avail || slots <= 0 {
			break
		}
		admit = append(admit, sched.Admission{Req: r})
		avail -= r.PromptLen
		slots--
	}
	return s.decision(admit, s.preempt[:0])
}

// decision keeps the filled buffers for the next pass and returns them as
// a Decision, an empty one as nil like a slice appended from nil.
func (s *Scheduler) decision(admit []sched.Admission, preempt []*request.Request) sched.Decision {
	s.admit, s.preempt = admit, preempt
	var d sched.Decision
	if len(admit) > 0 {
		d.Admit = admit
	}
	if len(preempt) > 0 {
		d.Preempt = preempt
	}
	return d
}

// resumeUrgent reports whether a preempted stream must resume before the
// next full pass to avoid a stall.
func (s *Scheduler) resumeUrgent(v *sched.View, r *request.Request) bool {
	if r.Rate <= 0 {
		return false
	}
	horizon := s.cfg.RescheduleInterval.Seconds()
	if v.Mem != nil {
		horizon += v.Mem.EstimateLoad(r, v.Now).Seconds()
	}
	return r.BufferSeconds() < horizon
}

// resumeMode picks load-from-host versus recompute by comparing the
// profiled I/O latency with the estimated recomputation time (§4.2.3's
// min(t_IO, t_recompute) rule).
func (s *Scheduler) resumeMode(v *sched.View, r *request.Request) sched.ResumeMode {
	if v.Mem == nil || v.Mem.HostBytes(r) == 0 {
		return sched.ResumeRecompute
	}
	tIO := v.Mem.EstimateLoad(r, v.Now)
	tRecompute := v.RecomputeEstimate(r)
	if tIO > tRecompute {
		return sched.ResumeRecompute
	}
	return sched.ResumeLoad
}

// capacity estimates the throughput bound Γ of §4.3: aggregate decode
// tokens/s at the largest batch device memory sustains for the live
// population's average context.
func (s *Scheduler) capacity(v *sched.View) float64 {
	var ctxSum int64
	n := 0
	add := func(rs []*request.Request) {
		for _, r := range rs {
			ctxSum += int64(r.FullContextLen())
			n++
		}
	}
	add(v.Running)
	add(v.Loading)
	add(v.PrefillBacklog)
	add(v.Preempted)
	add(v.Waiting)
	avgCtx := int64(1024)
	if n > 0 {
		avgCtx = ctxSum / int64(n)
	}
	if avgCtx <= 0 {
		avgCtx = 1
	}
	memBatch := int(int64(v.TotalTokens) / avgCtx)
	if memBatch < 1 {
		memBatch = 1
	}
	if v.MaxBatch > 0 && memBatch > v.MaxBatch {
		memBatch = v.MaxBatch
	}
	return v.Cost.PeakDecodeTokensPerSec(memBatch, avgCtx)
}

// demandAll sums required output rates over every live request — the
// Σ r_i of Eq. 6 taken over the population the scheduler would have to
// pace. Instant consumers (rate <= 0) contribute no pacing demand.
func demandAll(v *sched.View) float64 {
	var demand float64
	add := func(rs []*request.Request) {
		for _, r := range rs {
			if r.Rate > 0 && !r.GenerationDone() {
				demand += r.Rate
			}
		}
	}
	add(v.Running)
	add(v.Loading)
	add(v.PrefillBacklog)
	add(v.Preempted)
	add(v.Waiting)
	return demand
}

// overloaded implements the §4.3 schedulability check: when the combined
// required output rates exceed the throughput bound Γ, no schedule can
// pace every stream, and the scheduler gracefully degrades to FCFS with
// memory-aware admission (requests then finish at full device speed,
// which drains the overload fastest).
func (s *Scheduler) overloaded(v *sched.View) bool {
	demand := demandAll(v)
	if demand == 0 {
		return false
	}
	// 10% slack avoids flapping between balanced and fallback modes on
	// estimate noise.
	return demand > 1.1*s.capacity(v)
}

// fcfsFallback schedules strictly by arrival within device memory (§4.3):
// no buffer balancing, no new working-set growth beyond what fits.
func (s *Scheduler) fcfsFallback(v *sched.View) sched.Decision {
	admit := s.admit[:0]
	avail := v.FreeTokens - v.BacklogTokens()
	slots := v.SlotsFree()
	// Resume preempted in arrival order first, then fresh arrivals.
	pre := append(s.pre[:0], v.Preempted...)
	s.pre = pre
	slices.SortStableFunc(pre, func(a, b *request.Request) int { return cmp.Compare(a.Arrival, b.Arrival) })
	for _, r := range pre {
		need := r.PromptLen + r.Generated
		if need > avail || slots <= 0 {
			continue
		}
		admit = append(admit, sched.Admission{Req: r, Mode: s.resumeMode(v, r)})
		avail -= need
		slots--
	}
	for _, r := range v.Waiting {
		if r.PromptLen > avail || slots <= 0 {
			break
		}
		admit = append(admit, sched.Admission{Req: r})
		avail -= r.PromptLen
		slots--
	}
	return s.decision(admit, s.preempt[:0])
}

// candidate is one working-set member under buffer balancing.
type candidate struct {
	req *request.Request
	// utility is the selection priority U_i (see utility()).
	utility float64
	// tokens is the device context the request needs if resident during
	// the next interval (current context plus expected growth).
	tokens int
	// resident marks requests currently on the device.
	resident bool
	// committed marks requests the balancer cannot displace this pass
	// (mid-prefill, mid-load, or protected by the swap criterion).
	committed bool
}

// utility computes the per-request selection priority, the operational
// form of Eq. 3's U_i = v_i·t′ − γ·φ(b_rem). The paper defines φ(b)=e^(−b)
// and states that near-empty buffers must receive *higher* priority
// (§4.2.2 point 1), so the starvation term enters the priority positively;
// v_i·t′ is the expected value of the tokens generated next interval,
// which itself decays with buffer occupancy (tokens beyond the client's
// consumption horizon are worthless, §3.2). Unserved requests carry an
// additional urgency that grows with queueing delay relative to the TTFT
// target, so responsiveness pressure and starvation pressure compete on
// one scale.
func (s *Scheduler) utility(v *sched.View, r *request.Request) float64 {
	if r.Generated == 0 {
		wait := v.Now.Sub(r.Arrival).Seconds()
		return gamma * (1 + wait/ttftTarget.Seconds())
	}
	buf := r.BufferSeconds()
	starvation := gamma * math.Exp(-buf/bufferScaleSeconds)
	// v_i·t′: tokens generated over the next interval are worth up to the
	// client's consumption during that interval; a fat buffer devalues
	// them to zero.
	interval := s.cfg.RescheduleInterval.Seconds()
	value := 0.0
	if r.Rate > 0 {
		value = math.Max(0, 1-buf/(2*s.cfg.TargetBufferSeconds)) * interval
	} else {
		value = 0.5 * interval // instant consumers always consume
	}
	return starvation + value
}

// expectedTokens estimates the device context a request occupies through
// the next interval: current context plus decode growth.
func (s *Scheduler) expectedTokens(v *sched.View, r *request.Request) int {
	ctx := r.PromptLen + r.Generated
	growth := 0
	if v.AvgIterTime > 0 {
		growth = int(s.cfg.RescheduleInterval.Seconds() / v.AvgIterTime.Seconds())
	}
	if growth > r.RemainingOutput() {
		growth = r.RemainingOutput()
	}
	return ctx + growth
}

// fullPass runs the two-step algorithm: working-set determination (§4.2.1)
// then buffer balancing with greedy selection and local search (§4.2.2).
func (s *Scheduler) fullPass(v *sched.View) sched.Decision {
	// --- Step 1: working-set determination -----------------------------
	// W_static = ⌊M/β⌋ (Eq. 4) with β the live population's mean full
	// context (1024 tokens for an empty population).
	members := len(v.Running) + len(v.Loading) + len(v.PrefillBacklog) + len(v.Preempted)
	var sum int64
	n := 0
	add := func(rs []*request.Request) {
		for _, r := range rs {
			sum += int64(r.FullContextLen())
			n++
		}
	}
	add(v.Running)
	add(v.Preempted)
	add(v.Waiting)
	add(v.PrefillBacklog)
	beta := 0
	if n > 0 {
		beta = int(sum / int64(n))
	}
	if beta <= 0 {
		beta = 1024
	}
	wStatic := int(overcommit*float64(v.TotalTokens)) / beta
	if wStatic < 1 {
		wStatic = 1
	}
	// Eq. 5: shrink toward the live running count so the working set does
	// not balloon while the device is underused.
	wSched := wStatic
	if nRun := len(v.Running); nRun < wStatic {
		wSched = wStatic - int(adjustRate*float64(wStatic-nRun))
		if wSched < nRun+1 {
			wSched = nRun + 1
		}
	}

	// Admit waiting requests into the working set while capacity remains.
	// Overcommitment is intentional: the admitted request may displace a
	// fat-buffer stream in step 2. Admission requires the swap-feasibility
	// criterion — enough running streams must be able to cover a swap —
	// unless the device has outright free memory.
	admitted := s.admitted[:0]
	free := v.FreeTokens - v.BacklogTokens()
	swappable := 0
	for _, r := range v.Running {
		if r.PrefillDone() && s.canSurviveSwap(v, r) {
			swappable += r.PromptLen + r.Generated
		}
	}
	for _, r := range v.Waiting {
		if members+len(admitted) >= wSched {
			break
		}
		if r.PromptLen <= free {
			admitted = append(admitted, r)
			free -= r.PromptLen
			continue
		}
		if r.PromptLen <= free+swappable {
			admitted = append(admitted, r)
			swappable -= r.PromptLen - free
			free = 0
			continue
		}
		break
	}
	s.admitted = admitted

	// --- Step 2: buffer balancing inside the working set ----------------
	cands := s.cands[:0]
	for _, r := range v.Running {
		c := candidate{req: r, utility: s.utility(v, r), tokens: s.expectedTokens(v, r), resident: true}
		// Streams that cannot survive a swap, or are still prefilling,
		// must stay.
		if !r.PrefillDone() || r.Generated == 0 || !s.canSurviveSwap(v, r) {
			c.committed = true
		}
		// Streams below the target buffer are not preemption candidates
		// either: preempting them trades one stall for another.
		if r.Rate > 0 && r.BufferSeconds() < s.cfg.TargetBufferSeconds {
			c.committed = true
		}
		cands = append(cands, c)
	}
	for _, r := range v.Preempted {
		cands = append(cands, candidate{req: r, utility: s.utility(v, r), tokens: s.expectedTokens(v, r)})
	}
	for _, r := range admitted {
		cands = append(cands, candidate{req: r, utility: s.utility(v, r), tokens: s.expectedTokens(v, r)})
	}
	s.cands = cands

	// Loading and backlog requests are committed consumers of memory and
	// batch slots.
	budget := int(packFraction * float64(v.TotalTokens))
	for _, r := range v.Loading {
		budget -= s.expectedTokens(v, r)
	}
	for _, r := range v.PrefillBacklog {
		budget -= s.expectedTokens(v, r)
	}
	slots := 0 // 0 = unbounded
	if v.MaxBatch > 0 {
		slots = v.MaxBatch - len(v.Loading) - len(v.PrefillBacklog)
		if slots < 1 {
			slots = 1
		}
	}

	// Candidate IDs are distinct (Running, Preempted and the admitted
	// Waiting requests are disjoint), so the selection is kept by
	// candidate position.
	selected, _ := s.selectCandidates(cands, budget, slots)

	preempt := s.preempt[:0]
	for i, c := range cands {
		if c.resident && !selected[i] && !c.committed {
			preempt = append(preempt, c.req)
		}
	}
	// Admissions in utility order so the engine applies the most urgent
	// first when memory is tight.
	ordered := s.ordered[:0]
	for i, c := range cands {
		if !c.resident && selected[i] {
			ordered = append(ordered, c)
		}
	}
	s.ordered = ordered
	slices.SortStableFunc(ordered, func(a, b candidate) int { return orderBy(a, b, utilityBefore) })
	admit := s.admit[:0]
	for _, c := range ordered {
		adm := sched.Admission{Req: c.req}
		if c.req.State == request.StatePreempted {
			adm.Mode = s.resumeMode(v, c.req)
		}
		admit = append(admit, adm)
	}
	return s.decision(admit, preempt)
}

// orderBy turns a strict "sorts before" predicate into a three-way
// comparator that reports a tie exactly when neither element sorts before
// the other. A stable sort under it therefore makes the same comparisons
// and moves as one under less itself, NaN utilities included.
func orderBy[T any](a, b T, less func(a, b T) bool) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// utilityBefore orders admissions by descending utility.
func utilityBefore(a, b candidate) bool { return a.utility > b.utility }

// priorityBefore is the greedy packing order: committed candidates first
// (they consume budget regardless), then descending utility.
func priorityBefore(a, b candidate) bool {
	if a.committed != b.committed {
		return a.committed
	}
	return a.utility > b.utility
}

// selectCandidates greedily picks candidates by descending utility under
// the token budget, then applies the §4.2.2 local search: adjacent pairs
// in the priority queue are tentatively swapped and the greedy packing is
// re-evaluated; a swap sticks when it raises the total selected utility
// within the memory constraint. (A single large high-utility request can
// otherwise block several slightly-lower-utility small ones.) It returns
// the selection indexed by candidate position, valid until the next call,
// and its utility.
func (s *Scheduler) selectCandidates(cands []candidate, budget, slots int) ([]bool, float64) {
	n := len(cands)
	order := slices.Grow(s.order[:0], n)[:n]
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return orderBy(cands[a], cands[b], priorityBefore) })
	best := slices.Grow(s.best[:0], n)[:n]
	sel := slices.Grow(s.sel[:0], n)[:n]
	bestUtil := pack(cands, order, budget, slots, best)
	for k := 0; k+1 < len(order); k++ {
		if cands[order[k]].committed || cands[order[k+1]].committed {
			continue // committed entries are fixed consumers of budget
		}
		order[k], order[k+1] = order[k+1], order[k]
		if util := pack(cands, order, budget, slots, sel); util > bestUtil {
			best, sel = sel, best
			bestUtil = util
			s.SwapsApplied++
		} else {
			order[k], order[k+1] = order[k+1], order[k] // revert
		}
	}
	s.order, s.best, s.sel = order, best, sel
	return best, bestUtil
}

// pack runs the greedy packing over a candidate order under the token
// budget and the batch-slot cap (Σx_i ≤ B of §3.3; slots <= 0 means
// unbounded). It overwrites selected, indexed by candidate position, and
// returns the total utility of the discretionary selections.
func pack(cands []candidate, order []int, budget, slots int, selected []bool) float64 {
	clear(selected)
	remaining := budget
	left := slots
	util := 0.0
	for _, i := range order {
		c := &cands[i]
		if c.committed {
			selected[i] = true
			remaining -= c.tokens
			left--
			continue
		}
		if slots > 0 && left <= 0 {
			continue
		}
		if c.tokens <= remaining {
			selected[i] = true
			remaining -= c.tokens
			left--
			util += c.utility
		}
	}
	return util
}
