// Package core implements the TokenFlow buffer-aware request scheduler,
// the paper's primary contribution (§4): a two-step algorithm that first
// determines the working set of requests to multiplex (Eq. 4-5 with the
// swap-feasibility admission criterion) and then balances client token
// buffers inside the working set by preempting fat-buffer streams in favor
// of starved ones (the utility function of §3.3/§4.2.2, maximized with a
// greedy selection plus local search). It coordinates with the
// hierarchical KV cache manager of internal/kvcache: preemption decisions
// account for live I/O load, and resumes choose between loading the host
// copy and recomputing (§4.2.3).
package core

import (
	"fmt"
	"time"
)

// Config holds the TokenFlow scheduler's tunables. Start from
// DefaultConfig: Normalize fills the other zero fields with the paper's
// defaults, but μ (BufferConservativeness) has no zero default — zero is
// below its floor of 1 and an error.
type Config struct {
	// RescheduleInterval is Δt, the period of full buffer-balancing
	// passes (§7.5 studies 0.5-1.5s; default 1s).
	RescheduleInterval time.Duration

	// BufferConservativeness is μ, the safety factor in the admission
	// criterion b_rem ≥ μ·r_i·(τ_evict+τ_load+τ_schedule) (§4.2.1) and in
	// preemption-victim protection. Higher values behave more like
	// SGLang (§7.5 studies 1.0 and 20.0; DefaultConfig's 2.0). It must be
	// at least 1, so zero is an error rather than a default.
	BufferConservativeness float64

	// TargetBufferSeconds is the buffered-playback level beyond which a
	// running stream becomes a preemption candidate (the "buffer ≥
	// threshold" of the Figure 6 example; default 3s).
	TargetBufferSeconds float64
}

// Fixed scheduler constants the paper does not vary.
const (
	// adjustRate is λ in the dynamic working-set shrink
	// W_sched = W_static − λ·(W_static − N_running) (Eq. 5).
	adjustRate float64 = 0.5

	// gamma weighs the starvation-avoidance term in the utility function
	// (the γ of Eq. 3).
	gamma float64 = 4.0

	// bufferScaleSeconds normalizes buffered playback seconds inside the
	// exponential φ(b)=e^(−b/scale) so the penalty is meaningful across
	// consumption rates.
	bufferScaleSeconds float64 = 2.0

	// overcommit scales the working-set bound beyond device memory
	// (§4.2.2's overcommitment mechanism: the working set may exceed GPU
	// memory, with the excess transparently offloaded to host memory).
	// Eq. 4's M is therefore the host-extended capacity: W_static =
	// ⌊overcommit·M_gpu/β⌋.
	overcommit float64 = 2.5

	// criticalBufferSeconds is T_critical: a running stream dropping
	// below this much buffered playback triggers rescheduling even
	// between intervals (§4.2.1).
	criticalBufferSeconds float64 = 1.0

	// ttftTarget scales the urgency of unserved requests (the 1.3s
	// engagement threshold of §2.2).
	ttftTarget = 1300 * time.Millisecond

	// packFraction caps the total context the balancer packs onto the
	// device, as a fraction of pool capacity, leaving room for
	// per-iteration growth.
	packFraction float64 = 0.95
)

// DefaultConfig returns the paper's default TokenFlow settings.
func DefaultConfig() Config {
	return Config{
		RescheduleInterval:     time.Second,
		BufferConservativeness: 2.0,
		TargetBufferSeconds:    3.0,
	}
}

// Normalize fills zero fields other than μ with defaults and validates
// ranges: μ below 1 (zero and NaN included) and a negative or NaN target
// buffer are errors.
func (c Config) Normalize() (Config, error) {
	d := DefaultConfig()
	if c.RescheduleInterval == 0 {
		c.RescheduleInterval = d.RescheduleInterval
	}
	if c.TargetBufferSeconds == 0 {
		c.TargetBufferSeconds = d.TargetBufferSeconds
	}
	switch {
	case c.RescheduleInterval < 0:
		return c, fmt.Errorf("core: negative reschedule interval %v", c.RescheduleInterval)
	case !(c.BufferConservativeness >= 1):
		return c, fmt.Errorf("core: buffer conservativeness %v must be >= 1", c.BufferConservativeness)
	case !(c.TargetBufferSeconds > 0):
		return c, fmt.Errorf("core: target buffer %v s must be positive", c.TargetBufferSeconds)
	}
	return c, nil
}
