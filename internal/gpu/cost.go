package gpu

import (
	"fmt"
	"time"

	"repro/internal/model"
)

// CostModel predicts iteration latencies for a (device, model) pair using a
// roofline: an iteration takes the larger of its compute time and its
// device-memory traffic time, plus a fixed overhead. Prefill is
// compute-bound (quadratic attention terms are folded into ComputeEff);
// decode is bound by streaming the weights plus the batch's KV cache.
type CostModel struct {
	GPU   Spec
	Model model.Spec

	// The roofline operands the iteration predictions read, each the
	// specs' own expression evaluated once by NewCostModel. They are
	// cached as operands, never folded into new products, so every
	// prediction is bit-identical to deriving them per call.
	flopsPerToken   float64 // Model.FLOPsPerToken()
	effFLOPs        float64 // GPU.EffectiveFLOPs()
	weightBytes     float64 // float64(Model.WeightBytes())
	kvBytesPerToken float64 // float64(Model.KVBytesPerToken())
	effHBM          float64 // GPU.EffectiveHBMBytesPerSec()
}

// NewCostModel validates both specs and returns the cost model. Callers
// share the pointer: the per-iteration predictions read its cached
// operands instead of re-deriving them from the specs on every call, so
// the specs must not change after construction.
func NewCostModel(g Spec, m model.Spec) (*CostModel, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &CostModel{
		GPU: g, Model: m,
		flopsPerToken:   m.FLOPsPerToken(),
		effFLOPs:        g.EffectiveFLOPs(),
		weightBytes:     float64(m.WeightBytes()),
		kvBytesPerToken: float64(m.KVBytesPerToken()),
		effHBM:          g.EffectiveHBMBytesPerSec(),
	}
	if c.KVCapacityTokens(1.0) <= 0 {
		return nil, fmt.Errorf("gpu: model %s does not fit on %s", m.Name, g.Name)
	}
	return c, nil
}

// KVCapacityTokens reports how many context tokens fit in the KV pool when
// the serving engine is allowed memFraction of device memory for weights
// plus cache (SGLang's mem-fraction-static semantics). Returns 0 when the
// weights alone exceed the budget.
func (c *CostModel) KVCapacityTokens(memFraction float64) int64 {
	budget := int64(memFraction*float64(c.GPU.MemoryBytes())) - c.Model.WeightBytes()
	if budget <= 0 {
		return 0
	}
	return budget / c.Model.KVBytesPerToken()
}

// PrefillTime predicts the latency of a prefill iteration over
// promptTokens total input tokens (possibly several requests batched).
func (c *CostModel) PrefillTime(promptTokens int) time.Duration {
	if promptTokens <= 0 {
		return 0
	}
	return c.GPU.IterOverhead + secondsToDuration(c.prefillSeconds(promptTokens))
}

// prefillSeconds is PrefillTime's roofline: compute over promptTokens
// against one pass over the weights.
func (c *CostModel) prefillSeconds(promptTokens int) float64 {
	compute := float64(promptTokens) * c.flopsPerToken / c.effFLOPs
	memory := c.weightBytes / c.effHBM
	return maxf(compute, memory)
}

// stepSeconds is the roofline of an iteration that computes tokens new
// tokens while streaming the weights and contextTokens of resident KV.
func (c *CostModel) stepSeconds(tokens int, contextTokens int64) float64 {
	compute := float64(tokens) * c.flopsPerToken / c.effFLOPs
	bytes := c.weightBytes + float64(contextTokens)*c.kvBytesPerToken
	memory := bytes / c.effHBM
	return maxf(compute, memory)
}

// DecodeStepTime predicts the latency of one decode iteration that advances
// batch requests by one token each, with contextTokens total resident
// context across the batch.
func (c *CostModel) DecodeStepTime(batch int, contextTokens int64) time.Duration {
	if batch <= 0 {
		return 0
	}
	return c.GPU.IterOverhead + secondsToDuration(c.stepSeconds(batch, contextTokens))
}

// MixedStepTime predicts the latency of a chunked-prefill iteration that
// processes prefillTokens new prompt tokens alongside a decode batch.
func (c *CostModel) MixedStepTime(prefillTokens, batch int, contextTokens int64) time.Duration {
	if prefillTokens <= 0 {
		return c.DecodeStepTime(batch, contextTokens)
	}
	if batch <= 0 {
		return c.PrefillTime(prefillTokens)
	}
	return c.GPU.IterOverhead + secondsToDuration(c.stepSeconds(prefillTokens+batch, contextTokens))
}

// PeakDecodeTokensPerSec reports the aggregate decode throughput at a given
// batch size and average per-request context, used to estimate the capacity
// bound Γ in the schedulability check (§4.3).
func (c *CostModel) PeakDecodeTokensPerSec(batch int, avgContext int64) float64 {
	if batch <= 0 {
		return 0
	}
	step := c.DecodeStepTime(batch, int64(batch)*avgContext)
	if step <= 0 {
		return 0
	}
	return float64(batch) / step.Seconds()
}

// TransferTime reports how long moving n KV bytes across the host link
// takes, ignoring queueing (the Link type models queueing).
func (c *CostModel) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return secondsToDuration(float64(n) / c.GPU.PCIeBytesPerSec())
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
