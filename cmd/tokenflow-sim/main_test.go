package main

import (
	"math"
	"testing"
)

// TestCheckFlags: degenerate workloads and replica counts are errors, not
// generator panics or a silent single-device run.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		kind     string
		n        int
		lambda   float64
		replicas int
		ok       bool
	}{
		{"defaults", "burst", 100, 2, 1, true},
		{"sessions-cluster", "sessions", 120, 2, 4, true},
		{"poisson-ignores-n", "poisson", 0, 2, 1, true},
		{"sessions-ignore-lambda", "session-spikes", 10, 0, 1, true},
		{"sessions-n-0", "sessions", 0, 2, 1, false},
		{"session-spikes-negative-n", "session-spikes", -3, 2, 1, false},
		{"burst-n-0", "burst", 0, 2, 1, false},
		{"poisson-lambda-0", "poisson", 100, 0, 1, false},
		{"burstgpt-lambda-0", "burstgpt", 100, 0, 1, false},
		{"burstgpt-negative-lambda", "burstgpt", 100, -1, 1, false},
		{"poisson-lambda-NaN", "poisson", 100, math.NaN(), 1, false},
		{"burstgpt-lambda-NaN", "burstgpt", 100, math.NaN(), 1, false},
		{"poisson-lambda-Inf", "poisson", 100, math.Inf(1), 1, false},
		{"replicas-0", "burst", 100, 2, 0, false},
		{"replicas-negative", "burst", 100, 2, -2, false},
	}
	for _, c := range cases {
		err := checkFlags(c.kind, c.n, c.lambda, c.replicas)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags(%q, %d, %v, %d) = %v, want ok=%v",
				c.name, c.kind, c.n, c.lambda, c.replicas, err, c.ok)
		}
	}
}
