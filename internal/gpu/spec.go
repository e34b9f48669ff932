// Package gpu models the accelerator hardware the paper evaluates on. It
// provides per-device specifications, a roofline cost model for prefill and
// decode iterations, and a PCIe link model for GPU<->CPU KV-cache transfers.
//
// The simulator substitutes this package for real CUDA execution:
// TokenFlow's scheduling and memory-management behaviour
// depends only on iteration latencies, memory capacity, and transfer
// latencies, all of which the roofline and link models provide.
package gpu

import (
	"fmt"
	"time"
)

// Spec describes one accelerator. Peak numbers follow the vendor datasheets;
// the efficiency factors calibrate achievable serving throughput (real
// engines reach roughly half of peak FLOPs and 50-70% of peak HBM bandwidth
// on decode-sized kernels).
type Spec struct {
	Name string

	// FP16TFLOPS is peak dense fp16/bf16 tensor throughput in TFLOP/s.
	FP16TFLOPS float64

	// HBMGBps is peak device-memory bandwidth in GB/s.
	HBMGBps float64

	// PCIeGBps is achievable per-direction host link bandwidth in GB/s
	// (PCIe is full duplex; loads and evictions each get this much).
	PCIeGBps float64

	// MemoryGB is total device memory in GB.
	MemoryGB float64

	// ComputeEff and BandwidthEff scale the peaks to achievable rates.
	ComputeEff   float64
	BandwidthEff float64

	// IterOverhead is the fixed per-iteration cost (kernel launches,
	// scheduler round-trip, sampling) independent of batch size.
	IterOverhead time.Duration
}

// Validate reports an error if the spec has non-positive required fields.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("gpu: empty name")
	case s.FP16TFLOPS <= 0 || s.HBMGBps <= 0 || s.PCIeGBps <= 0 || s.MemoryGB <= 0:
		return fmt.Errorf("gpu %s: non-positive datasheet values", s.Name)
	case s.ComputeEff <= 0 || s.ComputeEff > 1 || s.BandwidthEff <= 0 || s.BandwidthEff > 1:
		return fmt.Errorf("gpu %s: efficiency factors must be in (0,1]", s.Name)
	case s.IterOverhead < 0:
		return fmt.Errorf("gpu %s: negative iteration overhead", s.Name)
	}
	return nil
}

// EffectiveFLOPs reports achievable FLOP/s.
func (s Spec) EffectiveFLOPs() float64 {
	return s.FP16TFLOPS * 1e12 * s.ComputeEff
}

// EffectiveHBMBytesPerSec reports achievable device-memory bytes/s.
func (s Spec) EffectiveHBMBytesPerSec() float64 {
	return s.HBMGBps * 1e9 * s.BandwidthEff
}

// MemoryBytes reports total device memory in bytes.
func (s Spec) MemoryBytes() int64 {
	return int64(s.MemoryGB * 1e9)
}

// PCIeBytesPerSec reports achievable per-direction host-link bytes/s.
func (s Spec) PCIeBytesPerSec() float64 {
	return s.PCIeGBps * 1e9
}

func (s Spec) String() string { return s.Name }

// The device zoo used in the paper's evaluation (§7.1.1 and Figure 21).
var (
	// RTX4090 is the NVIDIA GeForce RTX 4090 (Ada): 24 GB GDDR6X.
	RTX4090 = Spec{
		Name:         "RTX-4090",
		FP16TFLOPS:   165,
		HBMGBps:      1008,
		PCIeGBps:     25, // PCIe 4.0 x16, achievable
		MemoryGB:     24,
		ComputeEff:   0.45,
		BandwidthEff: 0.60,
		IterOverhead: 3 * time.Millisecond,
	}

	// A6000 is the NVIDIA RTX A6000 (Ampere): 48 GB GDDR6.
	A6000 = Spec{
		Name:         "A6000",
		FP16TFLOPS:   155,
		HBMGBps:      768,
		PCIeGBps:     25,
		MemoryGB:     48,
		ComputeEff:   0.45,
		BandwidthEff: 0.60,
		IterOverhead: 3 * time.Millisecond,
	}

	// H200 is the NVIDIA H200 SXM: 141 GB HBM3e.
	H200 = Spec{
		Name:         "H200",
		FP16TFLOPS:   989,
		HBMGBps:      4800,
		PCIeGBps:     50, // PCIe 5.0 x16, achievable
		MemoryGB:     141,
		ComputeEff:   0.45,
		BandwidthEff: 0.55,
		IterOverhead: 3 * time.Millisecond,
	}

	// Ascend910B is the Huawei Ascend 910B NPU used in Figure 21.
	Ascend910B = Spec{
		Name:         "Ascend-910B",
		FP16TFLOPS:   376,
		HBMGBps:      1600,
		PCIeGBps:     25,
		MemoryGB:     64,
		ComputeEff:   0.40,
		BandwidthEff: 0.55,
		IterOverhead: 4 * time.Millisecond,
	}
)

// All lists every device in the zoo.
func All() []Spec {
	return []Spec{RTX4090, A6000, H200, Ascend910B}
}

// ByName looks a device up by its Name field.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("gpu: unknown device %q", name)
}
