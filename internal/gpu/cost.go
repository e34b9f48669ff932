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
}

// NewCostModel validates both specs and returns the cost model. Callers
// share the pointer: the per-iteration predictions read the specs in place
// instead of copying them on every call.
func NewCostModel(g Spec, m model.Spec) (*CostModel, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &CostModel{GPU: g, Model: m}
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
	compute := float64(promptTokens) * c.Model.FLOPsPerToken() / c.GPU.EffectiveFLOPs()
	memory := float64(c.Model.WeightBytes()) / c.GPU.EffectiveHBMBytesPerSec()
	return c.GPU.IterOverhead + secondsToDuration(maxf(compute, memory))
}

// DecodeStepTime predicts the latency of one decode iteration that advances
// batch requests by one token each, with contextTokens total resident
// context across the batch.
func (c *CostModel) DecodeStepTime(batch int, contextTokens int64) time.Duration {
	if batch <= 0 {
		return 0
	}
	compute := float64(batch) * c.Model.FLOPsPerToken() / c.GPU.EffectiveFLOPs()
	bytes := float64(c.Model.WeightBytes()) + float64(contextTokens)*float64(c.Model.KVBytesPerToken())
	memory := bytes / c.GPU.EffectiveHBMBytesPerSec()
	return c.GPU.IterOverhead + secondsToDuration(maxf(compute, memory))
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
	compute := float64(prefillTokens+batch) * c.Model.FLOPsPerToken() / c.GPU.EffectiveFLOPs()
	bytes := float64(c.Model.WeightBytes()) + float64(contextTokens)*float64(c.Model.KVBytesPerToken())
	memory := bytes / c.GPU.EffectiveHBMBytesPerSec()
	return c.GPU.IterOverhead + secondsToDuration(maxf(compute, memory))
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
