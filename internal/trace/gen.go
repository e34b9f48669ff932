package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/simclock"
)

// Burst generates a flash crowd: n requests all arriving at time at
// (Table 1 setups (a)/(b), "bursty arrivals simulating flash crowds").
func Burst(name string, n int, at simclock.Time, lengths LengthDist, rates RateDist, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Name: name}
	for i := 0; i < n; i++ {
		p, o := lengths.Sample(rng)
		w.Items = append(w.Items, Item{
			Arrival:   at,
			PromptLen: p,
			OutputLen: o,
			Rate:      rates.SampleRate(rng),
		})
	}
	return w
}

// Poisson generates arrivals at rate lambda requests/second over the given
// duration (Table 1 setups (c)/(d), "Poisson-distributed arrivals modeling
// typical traffic").
func Poisson(name string, lambda float64, duration simclock.Time, lengths LengthDist, rates RateDist, seed int64) Workload {
	if !positiveFinite(lambda) {
		panic(fmt.Sprintf("trace: Poisson rate %v is not positive and finite", lambda))
	}
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Name: name}
	t := 0.0
	end := duration.Seconds()
	for {
		t += rng.ExpFloat64() / lambda
		if t > end {
			break
		}
		p, o := lengths.Sample(rng)
		w.Items = append(w.Items, Item{
			Arrival:   simclock.FromSeconds(t),
			PromptLen: p,
			OutputLen: o,
			Rate:      rates.SampleRate(rng),
		})
	}
	return w
}

// BurstGPTConfig parameterizes the BurstGPT-like generator.
type BurstGPTConfig struct {
	// Duration of the trace.
	Duration simclock.Time
	// BaseRate is the long-run average arrival rate in requests/second.
	BaseRate float64
	// GammaShape < 1 makes inter-arrival times burstier than Poisson
	// (the BurstGPT dataset fits shape ≈ 0.3-0.5).
	GammaShape float64
	// SpikeEvery and SpikeSize inject periodic flash crowds on top of the
	// background process (zero disables spikes).
	SpikeEvery simclock.Time
	SpikeSize  int
	Lengths    LengthDist
	Rates      RateDist
	Seed       int64
}

// BurstGPT generates a BurstGPT-like trace: Gamma-distributed inter-arrival
// times (burstier than Poisson) with optional periodic request spikes.
func BurstGPT(name string, cfg BurstGPTConfig) Workload {
	if !positiveFinite(cfg.BaseRate) {
		panic(fmt.Sprintf("trace: base rate %v is not positive and finite", cfg.BaseRate))
	}
	shape := cfg.GammaShape
	if shape <= 0 {
		shape = 0.4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := Workload{Name: name}
	// Mean inter-arrival = 1/BaseRate = shape*scale.
	scale := 1 / (cfg.BaseRate * shape)
	t := 0.0
	end := cfg.Duration.Seconds()
	for {
		t += sampleGamma(rng, shape, scale)
		if t > end {
			break
		}
		p, o := cfg.Lengths.Sample(rng)
		w.Items = append(w.Items, Item{
			Arrival:   simclock.FromSeconds(t),
			PromptLen: p,
			OutputLen: o,
			Rate:      cfg.Rates.SampleRate(rng),
		})
	}
	if cfg.SpikeEvery > 0 && cfg.SpikeSize > 0 {
		var spikes []Workload
		for at := cfg.SpikeEvery; at <= cfg.Duration; at += cfg.SpikeEvery {
			spikes = append(spikes, Burst(name, cfg.SpikeSize, at, cfg.Lengths, cfg.Rates, cfg.Seed^int64(at)))
		}
		w = Merge(name, append(spikes, w)...)
	}
	return w
}

// Industrial generates a workload shaped like the paper's production trace
// (Figure 11): a bursty arrival process with a sinusoidally modulated rate
// (traffic peaks) and the bimodal length mixture of IndustrialLengths.
func Industrial(name string, duration simclock.Time, peakRate float64, rates RateDist, seed int64) Workload {
	if !positiveFinite(peakRate) {
		panic(fmt.Sprintf("trace: peak rate %v is not positive and finite", peakRate))
	}
	rng := rand.New(rand.NewSource(seed))
	w := Workload{Name: name}
	lengths := IndustrialLengths{}
	end := duration.Seconds()
	period := end / 3 // three traffic waves across the trace
	if period <= 0 {
		period = 1
	}
	t := 0.0
	for {
		// Thinning: generate at peak rate, accept with probability equal
		// to the instantaneous modulation (0.35..1.0 sinusoid).
		t += rng.ExpFloat64() / peakRate
		if t > end {
			break
		}
		mod := 0.675 + 0.325*sin01(t/period)
		if rng.Float64() > mod {
			continue
		}
		p, o := lengths.Sample(rng)
		w.Items = append(w.Items, Item{
			Arrival:   simclock.FromSeconds(t),
			PromptLen: p,
			OutputLen: o,
			Rate:      rates.SampleRate(rng),
		})
	}
	return w
}

// positiveFinite reports whether an arrival rate is usable. The generators
// add gaps until they pass the window's end, and the gaps of a NaN rate
// (NaN) or an infinite one (zero) never do.
func positiveFinite(rate float64) bool { return rate > 0 && !math.IsInf(rate, 1) }

// sin01 maps a phase in periods to a [−1, 1] sinusoid.
func sin01(phase float64) float64 {
	return math.Sin(phase * 2 * math.Pi)
}
