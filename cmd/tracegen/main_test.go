package main

import (
	"math"
	"testing"
)

// TestCheckFlags: degenerate generator parameters are errors, not panics,
// empty traces or negative consumption rates; flags a kind does not read
// are not checked for it.
func TestCheckFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		kind     string
		n        int
		lambda   float64
		duration float64
		rate     float64
		ok       bool
	}{
		{"defaults", "burstgpt", 100, 2, 60, 20, true},
		{"burst", "burst", 50, 2, 60, 20, true},
		{"instant-readers", "sessions", 10, 2, 60, 0, true},
		{"burst-ignores-window", "burst", 5, 0, -1, 20, true},
		{"poisson-ignores-n", "poisson", 0, 2, 60, 20, true},
		{"sessions-ignore-lambda", "sessions", 10, 0, 60, 20, true},
		{"industrial", "industrial", 0, 3, 60, 20, true},
		{"unknown-kind", "diurnal", 100, 2, 60, 20, false},
		{"sessions-n-0", "sessions", 0, 2, 60, 20, false},
		{"burst-negative-n", "burst", -3, 2, 60, 20, false},
		{"poisson-lambda-0", "poisson", 100, 0, 60, 20, false},
		{"burstgpt-negative-lambda", "burstgpt", 100, -1, 60, 20, false},
		{"industrial-lambda-nan", "industrial", 100, nan, 60, 20, false},
		{"poisson-lambda-inf", "poisson", 100, inf, 60, 20, false},
		{"sessions-negative-duration", "sessions", 10, 2, -1, 20, false},
		{"poisson-duration-0", "poisson", 100, 2, 0, 20, false},
		{"burstgpt-duration-nan", "burstgpt", 100, 2, nan, 20, false},
		{"sessions-negative-rate", "sessions", 10, 2, 60, -4, false},
		{"burst-rate-nan", "burst", 10, 2, 60, nan, false},
		{"poisson-rate-inf", "poisson", 10, 2, 60, inf, false},
	}
	for _, c := range cases {
		err := checkFlags(c.kind, c.n, c.lambda, c.duration, c.rate)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags(%q, %d, %v, %v, %v) = %v, want ok=%v",
				c.name, c.kind, c.n, c.lambda, c.duration, c.rate, err, c.ok)
		}
	}
}
