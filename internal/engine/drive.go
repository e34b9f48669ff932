package engine

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/request"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// NewStandalone builds an engine on a fresh clock and, unless cfg names an
// endpoint, the single-host fabric at its GPU's PCIe bandwidth: one device
// with nothing around it, for the reference driver.
func NewStandalone(cfg Config) (*Engine, error) {
	if cfg.Clock == nil {
		cfg.Clock = simclock.New()
	}
	if cfg.Fabric == nil {
		bw := cfg.GPU.PCIeBytesPerSec()
		cfg.Fabric = fabric.NewSingleHost(bw, bw)
	}
	return New(cfg)
}

// Drive is the reference single-device executor: prime the workload, run
// the engine's clock dry, collect. It has no deadline. The one-replica
// cluster is proven equal to it (TestSingleReplicaMatchesEngine). Unlike
// the cluster, it records every request's whole per-token history
// (request.Timeline), for the engine's unit tests and the experiments that
// replay token timelines.
func Drive(e *Engine, w trace.Workload, sampleEvery time.Duration) *Result {
	prime(e, w, sampleEvery)
	for e.clock.Step() {
	}
	return e.Collect()
}

// prime schedules the workload's arrivals on the engine's own clock, each
// request with a Timeline attached, plus a queued/running sampling loop
// every sampleEvery when positive.
func prime(e *Engine, w trace.Workload, sampleEvery time.Duration) {
	var arena request.Arena
	arrived := 0
	for i, it := range w.Items {
		it, id := it, i
		e.clock.At(it.Arrival, func(now simclock.Time) {
			r := arena.New(id, now, it.PromptLen, it.OutputLen, it.Rate)
			r.Session, r.Turn = it.Session, it.Turn
			r.Timeline = &request.Timeline{}
			arrived++
			e.Inject(r, now)
		})
	}
	if sampleEvery > 0 {
		var sample func(now simclock.Time)
		sample = func(now simclock.Time) {
			e.Sample(now)
			if arrived < w.Len() || e.pendingInjects > 0 || !e.track.FinishedAll() {
				e.clock.After(sampleEvery, sample)
			}
		}
		e.clock.At(0, sample)
	}
}
