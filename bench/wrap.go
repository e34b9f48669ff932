package main

import (
	"math"
	"slices"
	"time"

	"repro/internal/autoscale"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Layer wrappers for the traced pass. Each wraps one public interface from
// outside the program, counts every call, and times one call in
// sampleEvery. A wrapper keeps exactly the optional interfaces its inner
// value implements: the cluster and engine select behaviour by type
// assertion (sched.Waker, router.Scorer, router.IndexBinder,
// autoscale.TTFTObserver, autoscale.Forecaster), so a wrapper that dropped
// one, or added one, would change the simulation it measures.

// sampleEvery is the timing stride: one call in sampleEvery is timed.
const sampleEvery = 16

// timer is one layer boundary's call counter and timing samples. It has a
// single writer: router and autoscale wrappers run on the coordinator, and
// each replica's scheduler wrapper on that replica's shard goroutine.
type timer struct {
	calls   int64
	samples []int64 // nanoseconds of each timed call
}

// sample counts a call and reports whether to time it.
func (t *timer) sample() bool {
	t.calls++
	return t.calls%sampleEvery == 1
}

func (t *timer) record(t0 time.Time) {
	t.samples = append(t.samples, time.Since(t0).Nanoseconds())
}

// timing summarizes one boundary, possibly merged over several timers.
type timing struct {
	calls, samples int64
	p50, p99       float64 // ns
	// totalS estimates the boundary's busy time: the mean timed call
	// times the call count.
	totalS float64
}

func summarize(ts ...*timer) timing {
	var all []int64
	var out timing
	for _, t := range ts {
		out.calls += t.calls
		all = append(all, t.samples...)
	}
	out.samples = int64(len(all))
	if len(all) == 0 {
		return out
	}
	slices.Sort(all)
	var sum int64
	for _, v := range all {
		sum += v
	}
	out.p50 = float64(all[rank(len(all), 0.50)])
	out.p99 = float64(all[rank(len(all), 0.99)])
	out.totalS = float64(sum) / float64(len(all)) * float64(out.calls) / 1e9
	return out
}

// rank is the ceil(p·n) rank convention of metrics.Percentile.
func rank(n int, p float64) int {
	i := int(math.Ceil(float64(n)*p)) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// schedTimer wraps a replica's scheduler and times Decide.
type schedTimer struct {
	sched.Scheduler
	t *timer
}

func (s *schedTimer) Decide(v *sched.View) sched.Decision {
	if !s.t.sample() {
		return s.Scheduler.Decide(v)
	}
	t0 := time.Now()
	d := s.Scheduler.Decide(v)
	s.t.record(t0)
	return d
}

// wakingSchedTimer is a schedTimer over a quantum-gated scheduler.
type wakingSchedTimer struct {
	*schedTimer
	w sched.Waker
}

func (s wakingSchedTimer) NextDecisionTime(now simclock.Time) simclock.Time {
	return s.w.NextDecisionTime(now)
}

func wrapScheduler(s sched.Scheduler, t *timer) sched.Scheduler {
	w := &schedTimer{Scheduler: s, t: t}
	if wk, ok := s.(sched.Waker); ok {
		return wakingSchedTimer{w, wk}
	}
	return w
}

// policyTimer wraps a routing policy and times Pick. Name is forwarded
// unchanged: the cluster picks its barrier-free fast path by policy name.
type policyTimer struct {
	router.Policy
	t *timer
}

func (p *policyTimer) Pick(req router.Request, replicas []router.Replica) int {
	if !p.t.sample() {
		return p.Policy.Pick(req, replicas)
	}
	t0 := time.Now()
	i := p.Policy.Pick(req, replicas)
	p.t.record(t0)
	return i
}

func wrapPolicy(p router.Policy, t *timer) router.Policy {
	w := &policyTimer{Policy: p, t: t}
	sc, isScorer := p.(router.Scorer)
	b, isBinder := p.(router.IndexBinder)
	switch {
	case isScorer && isBinder:
		return struct {
			*policyTimer
			router.Scorer
			router.IndexBinder
		}{w, sc, b}
	case isScorer:
		return struct {
			*policyTimer
			router.Scorer
		}{w, sc}
	case isBinder:
		return struct {
			*policyTimer
			router.IndexBinder
		}{w, b}
	}
	return w
}

// scalerTimer wraps an autoscale policy and times Decide.
type scalerTimer struct {
	autoscale.Policy
	t *timer
}

func (p *scalerTimer) Decide(s autoscale.Signals) autoscale.Decision {
	if !p.t.sample() {
		return p.Policy.Decide(s)
	}
	t0 := time.Now()
	d := p.Policy.Decide(s)
	p.t.record(t0)
	return d
}

func wrapScaler(p autoscale.Policy, t *timer) autoscale.Policy {
	w := &scalerTimer{Policy: p, t: t}
	o, isObserver := p.(autoscale.TTFTObserver)
	f, isForecaster := p.(autoscale.Forecaster)
	switch {
	case isObserver && isForecaster:
		return struct {
			*scalerTimer
			autoscale.TTFTObserver
			autoscale.Forecaster
		}{w, o, f}
	case isObserver:
		return struct {
			*scalerTimer
			autoscale.TTFTObserver
		}{w, o}
	case isForecaster:
		return struct {
			*scalerTimer
			autoscale.Forecaster
		}{w, f}
	}
	return w
}
