package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// Names of the four systems of the paper's evaluation (§7).
const (
	// SystemSGLangChunked is SGLang with chunked prefill.
	SystemSGLangChunked = "sglang-chunked"
	// SystemSGLang is conservative FCFS with prefill priority and
	// reactive recompute-based eviction.
	SystemSGLang = "sglang"
	// SystemAndes is QoE-aware preemptive scheduling with recompute-based
	// preemption.
	SystemAndes = "andes"
	// SystemTokenFlow is the paper's system: buffer-aware two-step
	// scheduling plus the hierarchical write-through KV cache manager.
	SystemTokenFlow = "tokenflow"
)

// Systems lists the evaluated systems in the paper's presentation order.
func Systems() []string {
	return []string{SystemSGLangChunked, SystemSGLang, SystemAndes, SystemTokenFlow}
}

// NewSystem builds the named system's scheduler and KV policy. The three
// baselines recompute on preemption (BaselineKVPolicy); TokenFlow runs the
// core scheduler tuned by tf over the full hierarchical manager
// (TokenFlowKVPolicy). The baselines ignore tf.
func NewSystem(name string, tf core.Config) (sched.Scheduler, KVPolicy, error) {
	switch name {
	case SystemSGLangChunked:
		return sched.NewSGLangChunked(), BaselineKVPolicy(), nil
	case SystemSGLang:
		return sched.NewSGLang(), BaselineKVPolicy(), nil
	case SystemAndes:
		return sched.NewAndes(), BaselineKVPolicy(), nil
	case SystemTokenFlow:
		s, err := core.New(tf)
		if err != nil {
			return nil, KVPolicy{}, err
		}
		return s, TokenFlowKVPolicy(), nil
	}
	return nil, KVPolicy{}, fmt.Errorf("engine: unknown system %q (have %v)", name, Systems())
}
