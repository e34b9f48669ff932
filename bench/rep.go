package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Repetition modes. An untraced repetition gives the end-to-end numbers.
// A traced one installs the layer wrappers and Obs.Profile. A toggled one
// is traced with Obs.Attribution flipped, which prices attribution.
const (
	modeUntraced = "untraced"
	modeTraced   = "traced"
	modeToggled  = "toggled"
)

// A repetition builds its cluster once untimed, so the timed builds do not
// pay the fresh process's first page faults, then times a batch of builds
// and reports their mean as setup_s: at least minSetups builds, more while
// they total under setupBudget (a 16-replica pool builds in ~0.1 ms), at
// most maxSetups. Garbage collection triggered by the builds lands inside
// the batch, as it would for a caller building clusters in turn, instead of
// deciding which mode a handful of sub-millisecond samples fall into. The
// last cluster built is the one that runs.
const (
	minSetups   = 3
	maxSetups   = 1000
	setupBudget = 0.2 // seconds
)

// repResult is what one repetition reports to the parent process.
type repResult struct {
	Mode        string `json:"mode"`
	Error       string `json:"error,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Attribution bool   `json:"attribution"`

	Requests     int    `json:"requests"`
	OutputTokens int64  `json:"output_tokens"`
	Events       uint64 `json:"events"`

	GenS   float64 `json:"gen_s"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// CPUS is the process CPU time (user + system) spent inside Run.
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// MaxRSSKB and KernelS are filled in by the parent: the child's peak
	// resident memory, and the mean calibration kernel time just before
	// and just after the repetition.
	MaxRSSKB int64   `json:"max_rss_kb"`
	KernelS  float64 `json:"kernel_s"`

	// Checked are simulated outputs printed for inspection; Counts are
	// exact per-layer counters from the Result; Timings are the traced
	// pass's wall-clock layer measurements.
	Checked map[string]float64 `json:"checked"`
	Counts  map[string]float64 `json:"counts"`
	Timings map[string]float64 `json:"timings,omitempty"`
}

// probes holds one cluster's traced-pass wrappers.
type probes struct {
	pick, scale *timer
	decide      []*timer // one per replica, in build order
}

// runRep runs one repetition of the workload in this process. A failed
// correctness gate is reported in the result's Error; the returned error
// is for a run that could not be set up at all.
func runRep(w workload, seed int64, scale float64, mode string) (*repResult, error) {
	r := &repResult{Mode: mode}
	t0 := time.Now()
	tr := w.gen(seed, scale)
	r.GenS = time.Since(t0).Seconds()

	var cl *cluster.Cluster
	var p *probes
	var total float64
	for n := -1; n < minSetups || (total < setupBudget && n < maxSetups); n++ {
		cfg, err := w.config(scale)
		if err != nil {
			return nil, err
		}
		p = nil
		if mode != modeUntraced {
			p = &probes{pick: &timer{}, scale: &timer{}}
			cfg.Policy = wrapPolicy(cfg.Policy, p.pick)
			if cfg.Autoscale != nil {
				cfg.Autoscale.Policy = wrapScaler(cfg.Autoscale.Policy, p.scale)
			}
			cfg.Obs.Profile = true
		}
		if mode == modeToggled {
			cfg.Obs.Attribution = !cfg.Obs.Attribution
		}
		r.Attribution = cfg.Obs.Attribution
		cl = nil // the previous build is garbage before the next starts
		t0 = time.Now()
		cl, err = cluster.New(cfg, buildEngine(w.kv, p))
		if n >= 0 {
			total += time.Since(t0).Seconds()
			r.SetupS = total / float64(n+1)
		}
		if err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 = time.Now()
	res, err := cl.Run(tr)
	r.RunS = time.Since(t0).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		r.Error = fmt.Sprintf("run: %v", err)
		return r, nil
	}

	r.Requests = tr.Len()
	r.OutputTokens = res.Report.TotalOut
	r.Events = res.EventsProcessed
	r.Fingerprint = fingerprint(res)
	r.Checked = checkedOutputs(res)
	r.Counts = layerCounts(res, tr)
	if res.TimedOut {
		r.Error = fmt.Sprintf("run timed out at %s", res.Makespan)
	} else if err := cluster.CheckInvariants(res, tr.Len()); err != nil {
		r.Error = fmt.Sprintf("invariants: %v", err)
	}
	if p != nil && r.Error == "" {
		r.Timings, err = layerTimings(res, p)
		if err != nil {
			r.Error = err.Error()
		}
	}
	return r, nil
}

// buildEngine is the replicas' BuildEngine: an RTX-4090 / Llama3-8B
// TokenFlow engine at mem-frac 0.9. With probes it wraps each replica's
// scheduler.
func buildEngine(kv engine.KVPolicy, p *probes) cluster.BuildEngine {
	return func(_ int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
		tf, err := core.New(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		var s sched.Scheduler = tf
		if p != nil {
			t := &timer{}
			p.decide = append(p.decide, t)
			s = wrapScheduler(s, t)
		}
		return engine.New(engine.Config{
			GPU:         gpu.RTX4090,
			Model:       model.Llama3_8B,
			MemFraction: 0.9,
			Scheduler:   s,
			KV:          kv,
			Clock:       clock,
			Fabric:      ep,
		})
	}
}

// checkedOutputs are the simulated results printed beside the metrics.
func checkedOutputs(res *cluster.Result) map[string]float64 {
	return map[string]float64{
		"sim.requests":      float64(res.Report.N),
		"sim.finished":      float64(res.Report.Finished),
		"sim.failed":        float64(res.RetryFailures + res.GatewayShed),
		"sim.p99_ttft_s":    res.Report.P99TTFT.Seconds(),
		"sim.effective_tps": res.Report.EffectiveThroughput,
	}
}

// layerCounts are the exact per-layer counters a Result carries.
func layerCounts(res *cluster.Result, tr trace.Workload) map[string]float64 {
	c := map[string]float64{
		"simclock.events":               float64(res.EventsProcessed),
		"trace.requests":                float64(tr.Len()),
		"cluster.migrations":            float64(res.Migrations),
		"cluster.migrations_declined":   float64(res.MigrationsDeclined),
		"cluster.retries":               float64(res.Retries),
		"cluster.retry_failures":        float64(res.RetryFailures),
		"cluster.gateway_shed":          float64(res.GatewayShed),
		"router.prefix_hit_ratio":       float64(res.PrefixHits) / float64(tr.Len()),
		"router.imbalance":              res.Imbalance,
		"autoscale.scale_events":        float64(len(res.ScaleEvents)),
		"autoscale.gpu_seconds":         res.GPUSeconds,
		"autoscale.warmup_stalls":       float64(res.WarmupStalls),
		"engine.preemptions":            float64(res.Report.Preemptions),
		"kvcache.host_reloads":          float64(res.HostReloads),
		"kvcache.host_reload_fallbacks": float64(res.HostReloadFallbacks),
		"chaos.crashes":                 float64(res.Crashes),
		"chaos.replications":            float64(res.Replications),
		"chaos.replicated_gb":           float64(res.ReplicatedBytes) / 1e9,
	}
	if st := res.PrefixIndex; st != nil {
		fallbacks := st.AffinityMisses + st.StaleFallbacks + st.HeadroomFallbacks + st.OverloadFallbacks
		c["prefixindex.published"] = float64(st.Published)
		c["prefixindex.applied"] = float64(st.Applied)
		c["prefixindex.fallbacks"] = float64(fallbacks)
		if n := st.AffinityHits + fallbacks; n > 0 {
			c["prefixindex.affinity_hit_ratio"] = float64(st.AffinityHits) / float64(n)
		}
	}
	var iters, evictions, loads, syncChunks int64
	var peakPinned float64
	for _, rs := range res.PerReplica {
		er := rs.Result
		iters += er.Iterations
		evictions += er.KV.Evictions
		loads += er.KV.Loads
		syncChunks += er.KV.SyncChunks
		if er.KV.PoolPages > 0 {
			if f := float64(er.KV.PeakPinnedPages) / float64(er.KV.PoolPages); f > peakPinned {
				peakPinned = f
			}
		}
	}
	c["engine.iterations"] = float64(iters)
	if iters > 0 {
		c["engine.tokens_per_iteration"] = float64(res.Report.TotalOut) / float64(iters)
	}
	c["kvcache.evictions"] = float64(evictions)
	c["kvcache.loads"] = float64(loads)
	c["kvcache.sync_chunks"] = float64(syncChunks)
	c["kvcache.peak_pinned_ratio"] = peakPinned
	if in := tr.TotalPromptTokens(); in > 0 {
		c["kvcache.prefix_hit_token_ratio"] = float64(res.PrefixHitTokens) / float64(in)
	}
	for _, cs := range res.TransferClasses {
		c["fabric."+cs.Class.String()+".transfers"] = float64(cs.Transfers)
		c["fabric."+cs.Class.String()+".gb"] = float64(cs.Bytes) / 1e9
	}
	return c
}

// layerTimings gathers the traced pass's wrapper and profiler figures, and
// times a re-analysis of the run's requests, which must reproduce the
// cluster's own report.
func layerTimings(res *cluster.Result, p *probes) (map[string]float64, error) {
	t := map[string]float64{}
	put := func(name string, s timing) {
		t[name+".calls"] = float64(s.calls)
		t[name+".samples"] = float64(s.samples)
		t[name+".ns_p50"] = s.p50
		t[name+".ns_p99"] = s.p99
		t[name+"_s"] = s.totalS
	}
	put("router.pick", summarize(p.pick))
	put("sched.decide", summarize(p.decide...))
	put("autoscale.decide", summarize(p.scale))

	var prof *obs.Profiler
	if res.Obs != nil {
		prof = res.Obs.Profile
	}
	step, settle := prof.Stat(obs.PhaseEngineStep), prof.Stat(obs.PhaseFabricSettle)
	t["engine.step.calls"] = float64(step.Calls)
	t["engine.step_s"] = float64(step.TotalNS) / 1e9
	t["fabric.settle.calls"] = float64(settle.Calls)
	t["fabric.settle_s"] = float64(settle.TotalNS) / 1e9
	t["autoscale.control_tick_s"] = float64(prof.Stat(obs.PhaseControlTick).TotalNS) / 1e9
	t["obs.attribution_finalize_s"] = float64(prof.Stat(obs.PhaseAttribution).TotalNS) / 1e9

	t0 := time.Now()
	rep := metrics.Analyze(res.Requests, simclock.Time(res.Makespan), metrics.DefaultQoSParams())
	t["metrics.analyze_s"] = time.Since(t0).Seconds()
	if !reflect.DeepEqual(rep, res.Report) {
		return nil, fmt.Errorf("metrics.Analyze re-call disagrees with the cluster report")
	}
	return t, nil
}

// cpuSeconds is this process's CPU time so far, user plus system.
// Getrusage fails only on an invalid "who", so its error is not checked.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostFactor converts the repetition's wall times to reference-host time.
func (r *repResult) hostFactor() float64 { return referenceKernel.Seconds() / r.KernelS }

// median of a non-empty sample; the mean of the middle pair for even n.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
