// Package metrics computes the paper's evaluation metrics from completed
// simulation runs: TTFT statistics, raw token throughput, effective
// throughput with the timeliness-based token weighting of §7.1.3
// (full credit below τ1 of the output length, linear decay to zero at τ2;
// request.TokenWeight, summed per request as tokens are delivered), and
// the synthetic QoS metric of §3.2 (token utility minus TTFT and
// rebuffering penalties, Eq. 2).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/request"
	"repro/internal/simclock"
)

// QoSParams weighs the penalty terms of the QoS sum (Eq. 2). The token
// weighting's thresholds are constants of the request package
// (request.Tau1, request.Tau2), because delivery sums the weights as the
// tokens arrive.
type QoSParams struct {
	// Lambda weighs the TTFT penalty and Mu the rebuffering penalty, both
	// in token-equivalents per second.
	Lambda, Mu float64
}

// DefaultQoSParams mirrors the paper's evaluation settings.
func DefaultQoSParams() QoSParams {
	return QoSParams{Lambda: 1.0, Mu: 2.0}
}

// Validate reports an error for negative penalty weights.
func (p QoSParams) Validate() error {
	if p.Lambda < 0 || p.Mu < 0 {
		return fmt.Errorf("metrics: negative penalty weights (%v, %v)", p.Lambda, p.Mu)
	}
	return nil
}

// RequestMetrics summarizes one request.
type RequestMetrics struct {
	ID           int
	Finished     bool
	TTFT         time.Duration
	TTFTCensored bool // request never produced a token; TTFT = makespan - arrival
	Tokens       int
	Effective    float64
	Rebuffer     time.Duration
	Preemptions  int
	Resumes      int
	// GenRate is the average generation rate over the request's token
	// span (tokens-1 over last-first), zero for single-token requests.
	GenRate float64
}

// Report aggregates a run.
type Report struct {
	N          int
	Finished   int
	Makespan   time.Duration
	TotalIn    int64
	TotalOut   int64
	Throughput float64 // output tokens per second over the makespan

	EffectiveTokens     float64
	EffectiveThroughput float64

	MeanTTFT time.Duration
	P50TTFT  time.Duration
	P99TTFT  time.Duration
	MaxTTFT  time.Duration

	TotalRebuffer time.Duration
	MeanRebuffer  time.Duration
	StallFraction float64 // fraction of requests with any rebuffering

	Preemptions int
	QoS         float64

	Requests []RequestMetrics
}

// Analyze computes a Report from completed (or partially completed)
// requests. makespan is the total request-processing time T of Eq. 2;
// requests that never generated a token contribute a censored TTFT of
// (makespan − arrival).
func Analyze(reqs []*request.Request, makespan simclock.Time, p QoSParams) Report {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rep := Report{N: len(reqs), Makespan: time.Duration(makespan)}
	if len(reqs) == 0 {
		return rep
	}
	rep.Requests = make([]RequestMetrics, 0, len(reqs))
	ttfts := make([]time.Duration, 0, len(reqs))
	var qosSum float64
	for _, r := range reqs {
		m := RequestMetrics{
			ID:          r.ID,
			Finished:    r.GenerationDone(),
			Tokens:      r.Generated,
			Effective:   r.Effective,
			Rebuffer:    r.RebufferTotal,
			Preemptions: r.Preemptions,
			Resumes:     r.Resumes,
		}
		if r.Generated > 0 {
			m.TTFT = r.TTFT()
		} else {
			m.TTFT = makespan.Sub(r.Arrival)
			m.TTFTCensored = true
		}
		if n := r.Generated; n >= 2 {
			span := r.LastTokenAt.Sub(r.FirstTokenAt).Seconds()
			if span > 0 {
				m.GenRate = float64(n-1) / span
			}
		}
		if m.Finished {
			rep.Finished++
		}
		rep.TotalIn += int64(r.PromptLen)
		rep.TotalOut += int64(r.Generated)
		rep.EffectiveTokens += m.Effective
		rep.TotalRebuffer += m.Rebuffer
		rep.Preemptions += m.Preemptions
		if m.Rebuffer > 0 {
			rep.StallFraction++
		}
		qosSum += m.Effective - p.Lambda*m.TTFT.Seconds() - p.Mu*m.Rebuffer.Seconds()
		ttfts = append(ttfts, m.TTFT)
		rep.Requests = append(rep.Requests, m)
	}
	rep.StallFraction /= float64(len(reqs))
	rep.MeanRebuffer = rep.TotalRebuffer / time.Duration(len(reqs))

	slices.Sort(ttfts)
	var sum time.Duration
	for _, t := range ttfts {
		sum += t
	}
	rep.MeanTTFT = sum / time.Duration(len(ttfts))
	rep.P50TTFT = Percentile(ttfts, 0.50)
	rep.P99TTFT = Percentile(ttfts, 0.99)
	rep.MaxTTFT = ttfts[len(ttfts)-1]

	if sec := makespan.Seconds(); sec > 0 {
		rep.Throughput = float64(rep.TotalOut) / sec
		rep.EffectiveThroughput = rep.EffectiveTokens / sec
		rep.QoS = qosSum / sec
	}
	return rep
}

// Percentile reports the p-quantile of sorted durations using the
// ceil(p·n) rank convention. It panics on an empty slice.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		panic("metrics: percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Imbalance reports the peak-to-mean ratio of per-replica loads (output
// tokens, request counts, ...): 1.0 is perfect balance, R means the hottest
// replica carried R× the average. Degenerate inputs (no replicas, zero
// total load) report 1.0, vacuously balanced.
func Imbalance(loads []float64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum <= 0 {
		return 1
	}
	return max / (sum / float64(len(loads)))
}
