package main

import (
	"repro/internal/fabric"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced repetitions. Every one is lower-is-
// better and never zero. Wall times are in reference-host time (see
// referenceKernel). Per-event figures are layer metrics, so a change that
// fires fewer events for identical results does not read as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s"},                // wall time of cluster.New, every BuildEngine included
	{"run_s", "s"},                  // wall time of Cluster.Run
	{"us_per_request", "us"},        // run_s per request of the workload
	{"ns_per_token", "ns"},          // run_s per output token
	{"allocs_per_request", "count"}, // heap allocations during Run per request
	{"alloc_kb_per_request", "KiB"}, // heap bytes allocated during Run per request
	{"peak_rss_mb", "MiB"},          // peak resident memory of the repetition's process
}

// perLayer metrics, named after the repository's modules. Counts come from
// the Result and are exact. Busy times and per-call latencies come from the
// traced pass. The busy time of a layer that does no work on some workload
// (router picks on the pre-routed fast path, the autoscale loop on a static
// pool) is reported as a share of the traced run's CPU time, so no
// seconds-valued metric is a constant zero.
var perLayer = append([]metricDef{
	{"simclock.events", "count"},
	{"simclock.ns_per_event", "ns"},
	{"simclock.allocs_per_event", "count"},
	{"trace.gen_s", "s"},
	{"trace.requests", "count"},
	{"cluster.cpu_per_wall", "ratio"},
	{"cluster.other_s", "s"},
	{"cluster.migrations", "count"},
	{"cluster.migrations_declined", "count"},
	{"cluster.retries", "count"},
	{"cluster.retry_failures", "count"},
	{"cluster.gateway_shed", "count"},
	{"router.pick.calls", "count"},
	{"router.pick.samples", "count"},
	{"router.pick.ns_p50", "ns/call"},
	{"router.pick.ns_p99", "ns/call"},
	{"router.pick_share", "ratio"},
	{"router.prefix_hit_ratio", "ratio"},
	{"router.imbalance", "ratio"},
	{"prefixindex.published", "count"},
	{"prefixindex.applied", "count"},
	{"prefixindex.affinity_hit_ratio", "ratio"},
	{"prefixindex.fallbacks", "count"},
	{"engine.step.calls", "count"},
	{"engine.step.ns_per_call", "ns/call"},
	{"engine.step_s", "s"},
	{"engine.iterations", "count"},
	{"engine.tokens_per_iteration", "ratio"},
	{"engine.preemptions", "count"},
	{"sched.decide.calls", "count"},
	{"sched.decide.samples", "count"},
	{"sched.decide.ns_p50", "ns/call"},
	{"sched.decide.ns_p99", "ns/call"},
	{"sched.decide_s", "s"},
	{"sched.decides_per_iteration", "ratio"},
	{"kvcache.evictions", "count"},
	{"kvcache.loads", "count"},
	{"kvcache.sync_chunks", "count"},
	{"kvcache.host_reloads", "count"},
	{"kvcache.host_reload_fallbacks", "count"},
	{"kvcache.prefix_hit_token_ratio", "ratio"},
	{"kvcache.peak_pinned_ratio", "ratio"},
	{"fabric.settle.calls", "count"},
	{"fabric.settle.ns_per_call", "ns/call"},
	{"fabric.settle_s", "s"},
	{"autoscale.decide.calls", "count"},
	{"autoscale.decide_share", "ratio"},
	{"autoscale.control_tick_share", "ratio"},
	{"autoscale.scale_events", "count"},
	{"autoscale.gpu_seconds", "sim_s"},
	{"autoscale.warmup_stalls", "count"},
	{"chaos.crashes", "count"},
	{"chaos.replications", "count"},
	{"chaos.replicated_gb", "GB"},
	{"obs.attribution_finalize_s", "s"},
	{"obs.overhead_ratio", "ratio"},
	{"metrics.analyze_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.calib_s", "s"},
}, fabricClassMetrics()...)

// fabricClassMetrics are the per-class transfer counts and volumes.
func fabricClassMetrics() []metricDef {
	var out []metricDef
	for _, c := range fabric.Classes() {
		out = append(out,
			metricDef{"fabric." + c.String() + ".transfers", "count"},
			metricDef{"fabric." + c.String() + ".gb", "GB"})
	}
	return out
}

// byMode splits the kept repetitions by mode.
func (inv *invocation) byMode(mode string) []*repResult {
	var out []*repResult
	for _, r := range inv.reps {
		if r.Mode == mode {
			out = append(out, r)
		}
	}
	return out
}

// endToEndSamples collects each end-to-end metric's per-repetition values.
func (inv *invocation) endToEndSamples() map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range inv.byMode(modeUntraced) {
		req, run := float64(r.Requests), r.RunS*r.hostFactor()
		s["setup_s"] = append(s["setup_s"], r.SetupS*r.hostFactor())
		s["run_s"] = append(s["run_s"], run)
		s["us_per_request"] = append(s["us_per_request"], run*1e6/req)
		s["ns_per_token"] = append(s["ns_per_token"], run*1e9/float64(r.OutputTokens))
		s["allocs_per_request"] = append(s["allocs_per_request"], float64(r.Mallocs)/req)
		s["alloc_kb_per_request"] = append(s["alloc_kb_per_request"], float64(r.AllocBytes)/1024/req)
		s["peak_rss_mb"] = append(s["peak_rss_mb"], float64(r.MaxRSSKB)/1024)
	}
	return s
}

// perLayerSamples collects each per-layer metric's per-repetition values:
// exact counts from every repetition, wall-clock layer figures from the
// traced ones, and the ratios that pair modes.
func (inv *invocation) perLayerSamples() map[string][]float64 {
	s := map[string][]float64{}
	add := func(name string, v float64) { s[name] = append(s[name], v) }
	untraced, traced := inv.byMode(modeUntraced), inv.byMode(modeTraced)
	var attrOn, attrOff []float64
	for _, r := range inv.reps {
		for name, v := range r.Counts {
			add(name, v)
		}
		add("trace.gen_s", r.GenS)
		add("bench.calib_s", r.KernelS)
		if r.Mode == modeUntraced {
			continue
		}
		t := r.Timings
		if r.Attribution {
			attrOn = append(attrOn, r.RunS*r.hostFactor())
			add("obs.attribution_finalize_s", t["obs.attribution_finalize_s"])
		} else {
			attrOff = append(attrOff, r.RunS*r.hostFactor())
		}
		add("metrics.analyze_s", t["metrics.analyze_s"])
	}
	for _, r := range untraced {
		add("simclock.ns_per_event", div(r.RunS*1e9, float64(r.Events)))
		add("simclock.allocs_per_event", div(float64(r.Mallocs), float64(r.Events)))
		add("cluster.cpu_per_wall", div(r.CPUS, r.RunS))
	}
	var tracedRun []float64
	for _, r := range traced {
		t := r.Timings
		tracedRun = append(tracedRun, r.RunS*r.hostFactor())
		for _, name := range []string{
			"router.pick.calls", "router.pick.samples", "router.pick.ns_p50", "router.pick.ns_p99",
			"sched.decide.calls", "sched.decide.samples", "sched.decide.ns_p50", "sched.decide.ns_p99", "sched.decide_s",
			"autoscale.decide.calls", "engine.step.calls", "engine.step_s", "fabric.settle.calls", "fabric.settle_s",
		} {
			add(name, t[name])
		}
		add("cluster.other_s", r.CPUS-t["engine.step_s"]-t["router.pick_s"]-t["autoscale.control_tick_s"])
		add("router.pick_share", div(t["router.pick_s"], r.CPUS))
		add("autoscale.decide_share", div(t["autoscale.decide_s"], r.CPUS))
		add("autoscale.control_tick_share", div(t["autoscale.control_tick_s"], r.CPUS))
		add("engine.step.ns_per_call", div(t["engine.step_s"]*1e9, t["engine.step.calls"]))
		add("fabric.settle.ns_per_call", div(t["fabric.settle_s"]*1e9, t["fabric.settle.calls"]))
		add("sched.decides_per_iteration", div(t["sched.decide.calls"], r.Counts["engine.iterations"]))
	}
	if len(tracedRun) > 0 && len(untraced) > 0 {
		var run []float64
		for _, r := range untraced {
			run = append(run, r.RunS*r.hostFactor())
		}
		add("bench.trace_overhead_ratio", median(tracedRun)/median(run))
	}
	if len(attrOn) > 0 && len(attrOff) > 0 {
		add("obs.overhead_ratio", median(attrOn)/median(attrOff))
	}
	return s
}

// div is a/b, or 0 when b is 0 (a layer that made no calls).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
