package main

import (
	"math"
	"testing"
)

// TestCheckFlags: degenerate workloads and replica counts are errors, not
// generator panics or a silent single-device run.
func TestCheckFlags(t *testing.T) {
	// flags are the checked values at their defaults; each case edits
	// some of them.
	type flags struct {
		kind             string
		n                int
		lambda, duration float64
		prompt, output   int
		rate             float64
		replicas         int
	}
	def := flags{"burst", 100, 2, 60, 512, 1024, 20, 1}
	with := func(kind string, edit func(*flags)) flags {
		f := def
		f.kind = kind
		if edit != nil {
			edit(&f)
		}
		return f
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		f    flags
		ok   bool
	}{
		{"defaults", def, true},
		{"sessions-cluster", with("sessions", func(f *flags) { f.n, f.replicas = 120, 4 }), true},
		{"poisson-ignores-n", with("poisson", func(f *flags) { f.n = 0 }), true},
		{"sessions-ignore-lambda", with("session-spikes", func(f *flags) { f.n, f.lambda = 10, 0 }), true},
		{"sessions-n-0", with("sessions", func(f *flags) { f.n = 0 }), false},
		{"session-spikes-negative-n", with("session-spikes", func(f *flags) { f.n = -3 }), false},
		{"burst-n-0", with("burst", func(f *flags) { f.n = 0 }), false},
		{"poisson-lambda-0", with("poisson", func(f *flags) { f.lambda = 0 }), false},
		{"burstgpt-lambda-0", with("burstgpt", func(f *flags) { f.lambda = 0 }), false},
		{"burstgpt-negative-lambda", with("burstgpt", func(f *flags) { f.lambda = -1 }), false},
		{"poisson-lambda-NaN", with("poisson", func(f *flags) { f.lambda = nan }), false},
		{"burstgpt-lambda-NaN", with("burstgpt", func(f *flags) { f.lambda = nan }), false},
		{"poisson-lambda-Inf", with("poisson", func(f *flags) { f.lambda = inf }), false},
		{"replicas-0", with("burst", func(f *flags) { f.replicas = 0 }), false},
		{"replicas-negative", with("burst", func(f *flags) { f.replicas = -2 }), false},
		// -duration: positive and finite where the kind reads it.
		{"burst-ignores-duration", with("burst", func(f *flags) { f.duration = nan }), true},
		{"poisson-duration-NaN", with("poisson", func(f *flags) { f.duration = nan }), false},
		{"poisson-duration-negative", with("poisson", func(f *flags) { f.duration = -5 }), false},
		{"burstgpt-duration-0", with("burstgpt", func(f *flags) { f.duration = 0 }), false},
		{"burstgpt-duration-Inf", with("burstgpt", func(f *flags) { f.duration = inf }), false},
		{"sessions-duration-NaN", with("sessions", func(f *flags) { f.duration = nan }), false},
		{"session-spikes-duration-negative", with("session-spikes", func(f *flags) { f.duration = -5 }), false},
		// -prompt and -output: at least 1 where the kind reads them.
		{"burst-prompt-negative", with("burst", func(f *flags) { f.prompt = -3 }), false},
		{"burst-output-0", with("burst", func(f *flags) { f.output = 0 }), false},
		{"poisson-prompt-0", with("poisson", func(f *flags) { f.prompt = 0 }), false},
		{"poisson-output-negative", with("poisson", func(f *flags) { f.output = -1 }), false},
		{"burstgpt-ignores-lengths", with("burstgpt", func(f *flags) { f.prompt, f.output = -3, 0 }), true},
		{"sessions-ignore-lengths", with("sessions", func(f *flags) { f.prompt, f.output = 0, -3 }), true},
		// -rate: finite and not negative for every kind; 0 is instant.
		{"rate-0", with("sessions", func(f *flags) { f.rate = 0 }), true},
		{"rate-negative", with("burst", func(f *flags) { f.rate = -1 }), false},
		{"rate-NaN", with("sessions", func(f *flags) { f.rate = nan }), false},
		{"rate-Inf", with("poisson", func(f *flags) { f.rate = inf }), false},
	}
	for _, c := range cases {
		f := c.f
		err := checkFlags(f.kind, f.n, f.lambda, f.duration, f.prompt, f.output, f.rate, f.replicas)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags(%+v) = %v, want ok=%v", c.name, f, err, c.ok)
		}
	}
}
