// Package tokenflow is the public API of the TokenFlow reproduction: a
// discrete-event simulator of LLM text-streaming serving with buffer-aware
// preemptive scheduling and hierarchical KV cache management, after
// "TokenFlow: Responsive LLM Text Streaming Serving under Request Burst
// via Preemptive Scheduling" (EuroSys '26).
//
// A minimal session:
//
//	w := tokenflow.BurstWorkload(64, 512, 1024, 20, 42)
//	res, err := tokenflow.Run(tokenflow.Config{
//		System: tokenflow.SystemTokenFlow,
//		GPU:    "H200",
//		Model:  "Llama3-8B",
//	}, w)
//
// Run simulates the deployment serving the workload and reports TTFT
// statistics, raw and effective throughput, the streaming QoS metric, and
// per-request details.
package tokenflow

import (
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// System selects the serving system (scheduler + memory policy pairing) to
// simulate; these are the four systems of the paper's evaluation.
type System string

// Systems under evaluation.
const (
	// SystemSGLang is conservative FCFS with prefill priority and
	// reactive recompute-based eviction.
	SystemSGLang System = engine.SystemSGLang
	// SystemSGLangChunked is SGLang with chunked prefill.
	SystemSGLangChunked System = engine.SystemSGLangChunked
	// SystemAndes is QoE-aware preemptive scheduling with recompute-based
	// preemption.
	SystemAndes System = engine.SystemAndes
	// SystemTokenFlow is the paper's system: buffer-aware two-step
	// scheduling plus the hierarchical write-through KV cache manager.
	SystemTokenFlow System = engine.SystemTokenFlow
)

// Systems lists all supported systems in the paper's presentation order.
func Systems() []System { return named[System](engine.Systems()) }

// GPUs lists the device names Config.GPU accepts.
func GPUs() []string {
	var out []string
	for _, s := range gpu.All() {
		out = append(out, s.Name)
	}
	return out
}

// Models lists the model names Config.Model accepts.
func Models() []string {
	var out []string
	for _, s := range model.All() {
		out = append(out, s.Name)
	}
	return out
}

// named converts an internal registry's names to their public type.
func named[T ~string](names []string) []T {
	out := make([]T, len(names))
	for i, n := range names {
		out[i] = T(n)
	}
	return out
}

// Request is one streaming request specification: its Arrival instant,
// PromptLen and OutputLen in tokens, the client's consumption Rate in
// tokens/s (reading or listening speed; 0 means the client consumes
// instantly), and Session and Turn marking multi-turn conversation
// membership (Session 0 = stateless). Turns of one session share a
// growing prompt prefix, which session-affinity routing and the
// per-replica prefix cache exploit.
type Request = trace.Item

// Workload is an ordered list of requests. Request i gets ID i, so a
// RequestStats' ID indexes the workload it came from. A run rejects an
// out-of-order, degenerate-length or bad-rate request with an error and
// never modifies the workload.
type Workload []Request

// Config describes the simulated deployment.
type Config struct {
	// System selects the scheduler/memory pairing (default SystemTokenFlow).
	System System

	// GPU names the device: "RTX-4090", "A6000", "H200", "Ascend-910B"
	// (GPUs).
	GPU string

	// Model names the served model: "Llama3-8B", "Qwen2-7B", "Qwen2.5-7B",
	// "Qwen2.5-32B" (Models).
	Model string

	// MemFraction is the device-memory share for weights + KV (default 0.9).
	MemFraction float64

	// HostPrefixCache extends session prefix pins past eviction: an
	// evicted pin's host mirror stays reloadable, and a returning turn
	// reloads it over the host-to-device link (inside its TTFT) whenever
	// the measured link backlog beats recomputing the prefix. Only
	// effective for systems with host offload (SystemTokenFlow).
	HostPrefixCache bool

	// HostPrefixCachePages caps the host-tier prefix cache at this many
	// mirrored pages (approximating a finite host-memory budget); 0 means
	// unbounded. Only meaningful with HostPrefixCache.
	HostPrefixCachePages int

	// SampleEvery enables queued/running time-series sampling at this
	// period.
	SampleEvery time.Duration

	// MaxSimTime aborts runaway simulations (default 4 sim-hours).
	MaxSimTime time.Duration

	// Obs turns on the flight recorder: lifecycle event tracing,
	// telemetry series, and the simulator self-profile. The zero value
	// records nothing and leaves results byte-identical to an
	// uninstrumented run.
	Obs ObsSpec
}

// RequestStats summarizes one request after a run: whether it Finished,
// its TTFT (censored at the makespan, TTFTCensored set, if it never
// produced a token), the Tokens it generated and its average generation
// rate GenRate over them, its timeliness-weighted Effective tokens, its
// client Rebuffer time, and its Preemptions and Resumes.
type RequestStats = metrics.RequestMetrics

// Report is a run's serving report: N requests of which Finished
// completed, the Makespan, raw Throughput and the §7.1.3
// EffectiveThroughput (tokens/s over the makespan), the Eq. 2 QoS, the
// TTFT mean and percentiles, rebuffering and preemption totals, and
// per-request Requests in ID order.
type Report = metrics.Report

// Time is an instant on the virtual clock: nanoseconds since the start of
// the run (Seconds converts). A seconds value s becomes
// Time(s * float64(time.Second)).
type Time = simclock.Time

// Sample is one point of the queued/running time series: the Queued and
// Running request counts at instant At.
type Sample = request.Sample

// Result reports a completed simulation. The serving report's fields are
// promoted (res.P99TTFT, res.QoS, res.Requests, ...).
type Result struct {
	System System
	Report
	TimedOut bool
	Samples  []Sample

	// Obs holds the flight-recorder capture when the run was instrumented
	// (Config.Obs); nil otherwise. Setting it aside, an instrumented
	// Result is identical to the uninstrumented one.
	Obs *ObsCapture
}

// Run simulates the deployment serving the workload: a one-replica
// RunCluster behind round-robin routing, whose merged report is the
// device's own. The flight-recorder capture, if any, rides on the Result.
func Run(cfg Config, w Workload) (*Result, error) {
	res, err := RunCluster(ClusterConfig{Config: cfg, Replicas: 1}, w)
	if err != nil {
		return nil, err
	}
	res.Cluster.Obs = res.Obs
	return res.Cluster, nil
}

// system builds a replica's scheduler and KV policy: the shared system
// table's entry for cfg.System at the paper's defaults, with the host
// prefix cache applied to TokenFlow's KV policy.
func (cfg Config) system() (sched.Scheduler, engine.KVPolicy, error) {
	s, kv, err := engine.NewSystem(string(cfg.System), core.DefaultConfig())
	if err == nil && cfg.System == SystemTokenFlow {
		kv.HostCache = cfg.HostPrefixCache
		kv.HostCachePages = cfg.HostPrefixCachePages
	}
	return s, kv, err
}

// BurstWorkload builds a flash crowd: n requests at t=0 with normally
// distributed lengths around the given means.
func BurstWorkload(n, meanPrompt, meanOutput int, rate float64, seed int64) Workload {
	w := trace.Burst("burst", n, 0, trace.NormalLengths{
		PromptMean: float64(meanPrompt), PromptStd: float64(meanPrompt) / 4,
		OutputMean: float64(meanOutput), OutputStd: float64(meanOutput) / 4,
		Min: 16, Max: 8192,
	}, trace.FixedRate(rate), seed)
	return w.Items
}

// PoissonWorkload builds Poisson arrivals at lambda req/s for the given
// duration.
func PoissonWorkload(lambda, durationSec float64, meanPrompt, meanOutput int, rate float64, seed int64) Workload {
	w := trace.Poisson("poisson", lambda, simclock.FromSeconds(durationSec), trace.NormalLengths{
		PromptMean: float64(meanPrompt), PromptStd: float64(meanPrompt) / 4,
		OutputMean: float64(meanOutput), OutputStd: float64(meanOutput) / 4,
		Min: 16, Max: 8192,
	}, trace.FixedRate(rate), seed)
	return w.Items
}

// BurstGPTWorkload builds a BurstGPT-like bursty trace with ShareGPT-style
// length distributions.
func BurstGPTWorkload(durationSec, baseRate float64, rate float64, seed int64) Workload {
	w := trace.BurstGPT("burstgpt", trace.BurstGPTConfig{
		Duration: simclock.FromSeconds(durationSec),
		BaseRate: baseRate,
		Lengths:  trace.ShareGPTLengths(),
		Rates:    trace.FixedRate(rate),
		Seed:     seed,
	})
	return w.Items
}

// BurstGPTSpikesWorkload is BurstGPTWorkload with periodic flash crowds of
// spikeSize requests every spikeEverySec seconds layered on the background
// process — the request-burst regime the paper targets.
func BurstGPTSpikesWorkload(durationSec, baseRate float64, spikeEverySec float64, spikeSize int, rate float64, seed int64) Workload {
	w := trace.BurstGPT("burstgpt-spikes", trace.BurstGPTConfig{
		Duration:   simclock.FromSeconds(durationSec),
		BaseRate:   baseRate,
		SpikeEvery: simclock.FromSeconds(spikeEverySec),
		SpikeSize:  spikeSize,
		Lengths:    trace.ShareGPTLengths(),
		Rates:      trace.FixedRate(rate),
		Seed:       seed,
	})
	return w.Items
}

// SessionWorkload builds a multi-turn chat workload: sessions
// conversations starting uniformly over durationSec, each 3-8 turns whose
// prompts grow by the previous response plus a short followup (a shared
// prefix session-affinity routing can exploit), separated by think-time
// gaps.
func SessionWorkload(sessions int, durationSec float64, rate float64, seed int64) Workload {
	w := trace.Sessions("sessions", trace.SessionConfig{
		Sessions: sessions,
		Duration: simclock.FromSeconds(durationSec),
		Rates:    trace.FixedRate(rate),
		Seed:     seed,
	})
	return w.Items
}

// SessionSpikesWorkload is SessionWorkload with periodic flash crowds:
// every spikeEverySec, a cohort of sessions opens simultaneously (half of
// all sessions arrive in cohorts) — the multi-turn request-burst regime
// the cluster experiment studies.
func SessionSpikesWorkload(sessions int, durationSec, spikeEverySec float64, rate float64, seed int64) Workload {
	w := trace.Sessions("session-spikes", trace.SessionConfig{
		Sessions:   sessions,
		Duration:   simclock.FromSeconds(durationSec),
		SpikeEvery: simclock.FromSeconds(spikeEverySec),
		Rates:      trace.FixedRate(rate),
		Seed:       seed,
	})
	return w.Items
}

// SessionRampWorkload is SessionWorkload with session-start density
// growing linearly over the window — a forecastable demand trend (instead
// of a level shift) that predictive autoscaling can pre-scale ahead of.
func SessionRampWorkload(sessions int, durationSec, rate float64, seed int64) Workload {
	w := trace.Sessions("session-ramp", trace.SessionConfig{
		Sessions: sessions,
		Duration: simclock.FromSeconds(durationSec),
		RampUp:   true,
		Rates:    trace.FixedRate(rate),
		Seed:     seed,
	})
	return w.Items
}
