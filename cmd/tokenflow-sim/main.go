// Command tokenflow-sim runs one simulated deployment against one
// generated workload and prints the serving report.
//
//	tokenflow-sim -system tokenflow -gpu H200 -model Llama3-8B \
//	    -workload burst -n 300 -prompt 512 -output 4096 -rate 20
//
// With -replicas > 1 it simulates a multi-replica cluster behind a
// routing policy:
//
//	tokenflow-sim -replicas 4 -router session-affinity \
//	    -workload session-spikes -n 300 -duration 240
//
// -hetero lays out a heterogeneous pool ("GPU[:count[:memfrac]]" comma
// list) and -migrate enables cross-replica KV migration:
//
//	tokenflow-sim -hetero "H200:1:0.3,RTX-4090:3:0.75" -migrate \
//	    -router session-affinity -workload session-spikes -n 300 -duration 240
//
// -autoscale enables SLO-driven replica autoscaling between -min-replicas
// and the pool size (-replicas or the -hetero layout), with -warmup seconds
// of scale-up latency and -prewarm shipping hot KV prefixes to warming
// replicas:
//
//	tokenflow-sim -autoscale queue-pressure -min-replicas 1 -replicas 4 \
//	    -warmup 8 -prewarm -router session-affinity \
//	    -workload session-spikes -n 300 -duration 240
//
// -autoscale slo-target drives the windowed P99 TTFT toward -slo-p99;
// -autoscale predictive pre-scales a warm-up ahead of the forecast
// arrival rate; -min-replicas 0 enables scale-to-zero with a
// -gateway-depth-bounded buffer that holds cold arrivals while the first
// replica warms:
//
//	tokenflow-sim -autoscale slo-target -slo-p99 2.5 -min-replicas 0 \
//	    -replicas 4 -warmup 8 -router session-affinity \
//	    -workload sessions -n 200 -duration 240
//
// -router indexed-session-affinity (or indexed-least-queue) routes against
// the event-published gateway prefix index instead of scanning live replica
// state; -index-delay, -index-drop, and -index-heartbeat model how stale
// that view is allowed to get:
//
//	tokenflow-sim -replicas 8 -router indexed-session-affinity \
//	    -index-delay 0.05 -index-heartbeat 0.25 \
//	    -workload session-spikes -n 300 -duration 240
//
// -topology selects the transfer-fabric interconnect (shared per-replica
// NICs contend; the default full mesh does not), -migration-policy cost
// declines migrations the wire would lose, and -host-cache lets evicted
// prefix pins reload from host memory instead of recomputing:
//
//	tokenflow-sim -replicas 4 -router session-affinity -migrate \
//	    -topology shared-nic -link-gbps 1 -migration-policy cost -host-cache \
//	    -workload session-spikes -n 300 -duration 240
//
// -chaos injects seeded-random faults on the virtual clock; -crash-at
// scripts replica crashes and -flap scripts interconnect link flaps, with
// recovery — retry/backoff re-routing, -redundancy pin mirrors, autoscaler
// backfill — fully simulated:
//
//	tokenflow-sim -replicas 4 -router session-affinity -host-cache \
//	    -crash-at 1:30 -redundancy 2 \
//	    -workload session-spikes -n 300 -duration 240
//
// -obs-out turns the whole flight recorder on and exports it into a
// directory: events.jsonl (the lifecycle event log, input of
// tokenflow-trace), trace.json (Chrome trace_event JSON — open in Perfetto
// at ui.perfetto.dev), series.csv (per-tick telemetry), profile.json (the
// simulator's self-profile) and attribution.json (the critical-path
// latency breakdown):
//
//	tokenflow-sim -replicas 3 -router session-affinity -migrate \
//	    -obs-out obs-out -workload session-spikes -n 300 -duration 240
//
// Invalid input — an unknown name, a degenerate workload (-n 0 sessions,
// a -lambda that is not positive and finite), a non-positive -replicas,
// a configuration the cluster rejects — prints one error line and exits
// with status 2.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/tokenflow"
)

// flagGroups sections the -help output: one group per subsystem instead of
// one flat alphabetical list.
var flagGroups = []struct {
	title string
	names []string
}{
	{"Deployment", []string{"system", "gpu", "model", "mem-fraction"}},
	{"Workload", []string{"workload", "n", "lambda", "duration", "spike-every",
		"prompt", "output", "rate", "seed"}},
	{"Cluster", []string{"replicas", "router", "hetero", "migrate", "migration-policy", "shards"}},
	{"Prefix index (gateway routing view)", []string{"prefix-index", "index-delay", "index-drop",
		"index-heartbeat", "index-staleness"}},
	{"Transfer fabric / KV movement", []string{"topology", "link-gbps", "switch-gbps", "host-cache",
		"host-cache-pages"}},
	{"Autoscaling", []string{"autoscale", "min-replicas", "warmup", "prewarm",
		"slo-p99", "forecast-rate", "gateway-depth"}},
	{"Chaos / fault injection", []string{"chaos", "crash-at", "flap", "redundancy"}},
	{"Observability", []string{"obs-out"}},
}

// alternatives joins a registry's names as "a | b | c" for a flag's usage
// string, so the help text cannot drift from the registry.
func alternatives[T ~string](names []T) string {
	s := make([]string, len(names))
	for i, n := range names {
		s[i] = string(n)
	}
	return strings.Join(s, " | ")
}

// groupedUsage prints the flag sections of flagGroups, then any flag the
// groups forgot (so a new flag can never silently vanish from -help).
func groupedUsage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage: tokenflow-sim [flags]\n")
	seen := map[string]bool{}
	printFlag := func(f *flag.Flag) {
		name, usage := flag.UnquoteUsage(f)
		if name != "" {
			name = " " + name
		}
		fmt.Fprintf(out, "  -%s%s\n    \t%s (default %v)\n", f.Name, name, usage, f.DefValue)
	}
	for _, g := range flagGroups {
		fmt.Fprintf(out, "\n%s:\n", g.title)
		for _, name := range g.names {
			if f := flag.Lookup(name); f != nil {
				seen[name] = true
				printFlag(f)
			}
		}
	}
	first := true
	flag.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			if first {
				fmt.Fprintf(out, "\nOther:\n")
				first = false
			}
			printFlag(f)
		}
	})
}

// seconds converts a flag's seconds value to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// parseCrashes parses a "replica:atSeconds" comma list into scripted crash
// faults, e.g. "1:30,2:45".
func parseCrashes(s string) ([]tokenflow.FaultSpec, error) {
	var out []tokenflow.FaultSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad crash spec %q (want replica:atSeconds)", part)
		}
		rep, err := strconv.Atoi(fields[0])
		if err != nil || rep < 0 {
			return nil, fmt.Errorf("bad replica in crash spec %q", part)
		}
		at, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("bad time in crash spec %q", part)
		}
		out = append(out, tokenflow.FaultSpec{Kind: tokenflow.FaultCrash, Replica: rep, At: tokenflow.Time(seconds(at))})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -crash-at spec %q", s)
	}
	return out, nil
}

// parseFlaps parses a "from-to:atSeconds:durationSeconds" comma list into
// scripted link-flap faults, e.g. "0-1:20:5".
func parseFlaps(s string) ([]tokenflow.FaultSpec, error) {
	var out []tokenflow.FaultSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad flap spec %q (want from-to:atSeconds:durationSeconds)", part)
		}
		pair := strings.Split(fields[0], "-")
		if len(pair) != 2 {
			return nil, fmt.Errorf("bad link pair in flap spec %q", part)
		}
		from, err1 := strconv.Atoi(pair[0])
		to, err2 := strconv.Atoi(pair[1])
		if err1 != nil || err2 != nil || from < 0 || to < 0 {
			return nil, fmt.Errorf("bad link pair in flap spec %q", part)
		}
		at, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("bad time in flap spec %q", part)
		}
		dur, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("bad duration in flap spec %q", part)
		}
		out = append(out, tokenflow.FaultSpec{
			Kind: tokenflow.FaultLinkFlap, From: from, To: to,
			At: tokenflow.Time(seconds(at)), Duration: seconds(dur),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -flap spec %q", s)
	}
	return out, nil
}

// parseHetero parses a "GPU[:count[:memfrac]]" comma list into replica
// specs, e.g. "H200:1:0.3,RTX-4090:3:0.75".
func parseHetero(s string) ([]tokenflow.ReplicaSpec, error) {
	var specs []tokenflow.ReplicaSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("bad replica spec %q (want GPU[:count[:memfrac]])", part)
		}
		spec := tokenflow.ReplicaSpec{GPU: fields[0], Count: 1}
		if len(fields) > 1 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad replica count in %q", part)
			}
			spec.Count = n
		}
		if len(fields) > 2 {
			f, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || f <= 0 || f > 1 {
				return nil, fmt.Errorf("bad mem fraction in %q", part)
			}
			spec.MemFraction = f
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty -hetero spec %q", s)
	}
	return specs, nil
}

// checkFlags rejects the flag values the workload generators would panic
// on or silently replace, and the replica counts the cluster would
// silently replace. Each workload kind is checked only on the flags it
// reads.
func checkFlags(kind string, n int, lambda, duration float64, prompt, output int, rate float64, replicas int) error {
	var count, arrivals, window, lengths bool
	switch kind {
	case "burst":
		count, lengths = true, true
	case "poisson":
		arrivals, window, lengths = true, true, true
	case "burstgpt":
		arrivals, window = true, true
	case "sessions", "session-spikes":
		count, window = true, true
	}
	switch {
	case replicas < 1:
		return fmt.Errorf("-replicas %d: the pool needs at least 1 replica", replicas)
	case count && n < 1:
		return fmt.Errorf("-n %d: the %s workload needs at least 1 request or session", n, kind)
	case arrivals && !(lambda > 0 && !math.IsInf(lambda, 1)):
		return fmt.Errorf("-lambda %v: the %s workload needs a positive, finite arrival rate", lambda, kind)
	case window && !(duration > 0 && !math.IsInf(duration, 1)):
		return fmt.Errorf("-duration %v: the %s workload needs a positive, finite window", duration, kind)
	case lengths && prompt < 1:
		return fmt.Errorf("-prompt %d: the %s workload needs a mean prompt of at least 1 token", prompt, kind)
	case lengths && output < 1:
		return fmt.Errorf("-output %d: the %s workload needs a mean output of at least 1 token", output, kind)
	case !(rate >= 0 && !math.IsInf(rate, 1)):
		return fmt.Errorf("-rate %v: the consumption rate must be finite and not negative (0 = instant)", rate)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tokenflow-sim:", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		system   = flag.String("system", "tokenflow", alternatives(tokenflow.Systems()))
		gpuName  = flag.String("gpu", "H200", alternatives(tokenflow.GPUs()))
		modelID  = flag.String("model", "Llama3-8B", alternatives(tokenflow.Models()))
		memFrac  = flag.Float64("mem-fraction", 0.9, "device memory share for weights+KV")
		kind     = flag.String("workload", "burst", "burst | poisson | burstgpt | sessions | session-spikes")
		n        = flag.Int("n", 100, "burst size / session count")
		lambda   = flag.Float64("lambda", 2, "poisson arrival rate (req/s)")
		duration = flag.Float64("duration", 60, "arrival window for poisson/burstgpt/sessions (s)")
		spike    = flag.Float64("spike-every", 60, "session-spikes: seconds between session flash crowds")
		prompt   = flag.Int("prompt", 512, "mean prompt tokens")
		output   = flag.Int("output", 1024, "mean output tokens")
		rate     = flag.Float64("rate", 20, "client consumption rate (tok/s); 0 = instant")
		seed     = flag.Int64("seed", 1, "workload seed")
		replicas = flag.Int("replicas", 1, "engine replicas: the pool size; the autoscaling maximum (cluster mode when > 1)")
		routerP  = flag.String("router", "round-robin", alternatives(tokenflow.RouterPolicies()))
		hetero   = flag.String("hetero", "", `heterogeneous pool as "GPU[:count[:memfrac]],..." (cluster mode)`)
		migrate  = flag.Bool("migrate", false, "enable cross-replica KV migration over the interconnect")
		migPol   = flag.String("migration-policy", "always", alternatives(tokenflow.MigrationPolicies())+" (cost declines migrations the wire would lose)")
		topology = flag.String("topology", "full-mesh", "interconnect layout: "+alternatives(tokenflow.TopologyKinds()))
		linkBW   = flag.Float64("link-gbps", 25, "interconnect link bandwidth (GB/s): per pair (full-mesh) or per NIC direction (shared-nic)")
		switchBW = flag.Float64("switch-gbps", 0, "shared-nic switch stage bandwidth (GB/s); 0 = non-blocking")
		hostCach = flag.Bool("host-cache", false, "host-tier prefix cache: evicted session pins reload over h2d instead of recomputing")
		hostPage = flag.Int("host-cache-pages", 0, "cap the host-tier prefix cache at this many mirrored pages (0 = unbounded)")
		shards   = flag.Int("shards", 0, "partition a round-robin static run's replicas across this many parallel worker goroutines; a routed run (any other router, migration, autoscaling, chaos, a prefix index) is one clock with no barrier (0 or 1 = one shard; results are identical at any count)")
		pfxIndex = flag.Bool("prefix-index", false, "publish KV lifecycle events into the gateway prefix index (implied by the indexed routers and by any -index-* flag)")
		idxDelay = flag.Float64("index-delay", 0, "prefix-index event propagation delay (s); 0 = synchronous")
		idxDrop  = flag.Float64("index-drop", 0, "prefix-index KV event drop probability in [0,1)")
		idxHeart = flag.Float64("index-heartbeat", 0, "prefix-index load-digest heartbeat period (s); 0 = per-change load stream")
		idxStale = flag.Float64("index-staleness", 0, "prefix-index digest staleness bound (s) before routing falls back; 0 = derived from heartbeat+delay")
		scaler   = flag.String("autoscale", "", "autoscaling policy: "+alternatives(tokenflow.AutoscalePolicies())+" (empty = static pool)")
		minReps  = flag.Int("min-replicas", 1, "autoscaling lower bound on in-service replicas; 0 enables scale-to-zero with the gateway queue")
		warmup   = flag.Float64("warmup", 8, "autoscaling scale-up warm-up latency (s); 0 = instant")
		prewarm  = flag.Bool("prewarm", false, "pre-warm scaling-up replicas with hot KV prefixes over the interconnect")
		sloP99   = flag.Float64("slo-p99", 2, "slo-target policy: windowed P99 TTFT goal (s)")
		fcRate   = flag.Float64("forecast-rate", 0, "predictive policy: arrival rate (req/s) one replica absorbs (0 = default 0.6)")
		gwDepth  = flag.Int("gateway-depth", 0, "scale-to-zero gateway buffer bound (0 = default 512; negative = zero capacity, cold arrivals shed)")
		chaosN   = flag.Int("chaos", 0, "inject this many seeded-random faults (crashes, brownouts, link flaps) over the workload window, keyed by -seed")
		crashAt  = flag.String("crash-at", "", "scripted replica crashes as `replica:atSeconds,...` (e.g. \"1:30,2:45\")")
		flapAt   = flag.String("flap", "", "scripted link flaps as `from-to:atSeconds:durationSeconds,...` (e.g. \"0-1:20:5\")")
		redund   = flag.Int("redundancy", 0, "pin-redundancy factor K: keep host mirrors of pinned prefixes on K-1 backup replicas, re-pinned after a crash (0/1 = off)")
		obsOut   = flag.String("obs-out", "", "record events, series, self-profile and attribution and write events.jsonl, trace.json, series.csv, profile.json and attribution.json into `dir`")
	)
	flag.Usage = groupedUsage
	flag.Parse()
	if err := checkFlags(*kind, *n, *lambda, *duration, *prompt, *output, *rate, *replicas); err != nil {
		return err
	}

	var w tokenflow.Workload
	switch *kind {
	case "burst":
		w = tokenflow.BurstWorkload(*n, *prompt, *output, *rate, *seed)
	case "poisson":
		w = tokenflow.PoissonWorkload(*lambda, *duration, *prompt, *output, *rate, *seed)
	case "burstgpt":
		w = tokenflow.BurstGPTWorkload(*duration, *lambda, *rate, *seed)
	case "sessions":
		w = tokenflow.SessionWorkload(*n, *duration, *rate, *seed)
	case "session-spikes":
		w = tokenflow.SessionSpikesWorkload(*n, *duration, *spike, *rate, *seed)
	default:
		return fmt.Errorf("unknown workload kind %q", *kind)
	}

	cfg := tokenflow.Config{
		System:               tokenflow.System(*system),
		GPU:                  *gpuName,
		Model:                *modelID,
		MemFraction:          *memFrac,
		HostPrefixCache:      *hostCach,
		HostPrefixCachePages: *hostPage,
	}
	if *obsOut != "" {
		cfg.Obs = tokenflow.ObsSpec{
			Events: true, Series: true, Profile: true, Attribution: true,
			Out: *obsOut,
		}
		// Series ride the sampling loop, which is off by default.
		cfg.SampleEvery = 250 * time.Millisecond
	}

	var res *tokenflow.Result
	var ocap *tokenflow.ObsCapture
	// Any -index-* knob implies -prefix-index; the indexed routers get the
	// degenerate spec automatically even without it.
	wantIndex := *pfxIndex || *idxDelay > 0 || *idxDrop > 0 || *idxHeart > 0 || *idxStale > 0
	// -host-cache routes through cluster mode even for one replica (a
	// 1-replica round-robin cluster reproduces Run exactly) so the host
	// prefix cache's reload/fallback stats are reported; so does -shards,
	// so the cluster validates it.
	wantChaos := *chaosN > 0 || *crashAt != "" || *flapAt != "" || *redund > 1
	if *replicas > 1 || *hetero != "" || *scaler != "" || *hostCach || *shards != 0 || wantIndex || wantChaos {
		ccfg := tokenflow.ClusterConfig{
			Config:          cfg,
			Replicas:        *replicas,
			Router:          tokenflow.RouterPolicy(*routerP),
			Migrate:         *migrate,
			MigrationPolicy: tokenflow.MigrationPolicy(*migPol),
			Shards:          *shards,
			Topology: &tokenflow.TopologySpec{
				Kind:       tokenflow.TopologyKind(*topology),
				LinkGBps:   *linkBW,
				SwitchGBps: *switchBW,
			},
		}
		if *hetero != "" {
			specs, err := parseHetero(*hetero)
			if err != nil {
				return err
			}
			ccfg.ReplicaSpecs = specs
		}
		if wantIndex {
			ccfg.PrefixIndex = &tokenflow.PrefixIndexSpec{
				PropagationDelay: seconds(*idxDelay),
				DropRate:         *idxDrop,
				HeartbeatEvery:   seconds(*idxHeart),
				MaxStaleness:     seconds(*idxStale),
				Seed:             *seed,
			}
		}
		if wantChaos {
			cs := &tokenflow.ChaosSpec{
				RandomFaults: *chaosN,
				Seed:         *seed,
				Horizon:      tokenflow.Time(seconds(*duration)),
				Redundancy:   *redund,
			}
			if *crashAt != "" {
				faults, err := parseCrashes(*crashAt)
				if err != nil {
					return err
				}
				cs.Faults = append(cs.Faults, faults...)
			}
			if *flapAt != "" {
				faults, err := parseFlaps(*flapAt)
				if err != nil {
					return err
				}
				cs.Faults = append(cs.Faults, faults...)
			}
			ccfg.Chaos = cs
		}
		if *scaler != "" {
			ws := *warmup
			if ws == 0 {
				// The flag default is 8, so an explicit 0 means "instant" —
				// map it onto the spec's negative-means-instant convention
				// (its own zero value selects the default).
				ws = -1
			}
			ccfg.Autoscale = &tokenflow.AutoscaleSpec{
				Policy:                 tokenflow.AutoscalePolicy(*scaler),
				MinReplicas:            *minReps,
				Warmup:                 seconds(ws),
				Prewarm:                *prewarm,
				ScaleToZero:            *minReps == 0,
				GatewayDepth:           *gwDepth,
				TargetP99TTFT:          seconds(*sloP99),
				ForecastRatePerReplica: *fcRate,
			}
		}
		cres, err := tokenflow.RunCluster(ccfg, w)
		if err != nil {
			return err
		}
		res = cres.Cluster
		ocap = cres.Obs
		fmt.Printf("replicas            %d (router: %s)\n", len(cres.Replicas), cres.Router)
		fmt.Printf("load imbalance      %.2fx peak/mean\n", cres.Imbalance)
		fmt.Printf("prefix-cache hits   %d (%d tokens of prefill skipped)\n",
			cres.PrefixHits, cres.PrefixHitTokens)
		fmt.Printf("prefix residency    %d pages pinned at end, %d pressure evictions\n",
			cres.PinnedPrefixPages, cres.PrefixEvictions)
		if *migrate {
			fmt.Printf("KV migrations       %d (%d tokens shipped, %d drops, %d declined by cost model)\n",
				cres.Migrations, cres.MigratedTokens, cres.MigrationDrops, cres.MigrationsDeclined)
		}
		if *hostCach {
			fmt.Printf("host prefix cache   %d reloads (%d tokens), %d recompute fallbacks\n",
				cres.HostReloads, cres.HostReloadTokens, cres.HostReloadFallbacks)
		}
		if wantChaos {
			fmt.Printf("chaos               %d crashes, %d brownouts, %d link flaps injected\n",
				cres.Crashes, cres.Brownouts, cres.LinkFlaps)
			fmt.Printf("chaos recovery      %d retries, %d permanent failures, %d backfills, %d transfers aborted\n",
				cres.Retries, cres.RetryFailures, cres.Backfills, cres.MigrationsAborted)
			if *redund > 1 {
				fmt.Printf("pin redundancy      K=%d: %d replication transfers, %.1f MB over the fabric\n",
					*redund, cres.Replications, float64(cres.ReplicatedBytes)/1e6)
			}
		}
		if st := cres.PrefixIndex; st != nil {
			fmt.Printf("prefix index        %d events published (%d dropped, %d still in flight), %d heartbeats\n",
				st.Published, st.Dropped, st.Pending, st.Heartbeats)
			fmt.Printf("indexed routing     %d affinity hits, %d misses, %d stale / %d headroom / %d overload fallbacks\n",
				st.AffinityHits, st.AffinityMisses, st.StaleFallbacks, st.HeadroomFallbacks, st.OverloadFallbacks)
		}
		fmt.Printf("transfer fabric     %s, %.1f GB/s links\n", *topology, *linkBW)
		for _, cs := range cres.Transfers {
			if cs.Transfers == 0 {
				continue
			}
			fmt.Printf("  %-8s %6d transfers, %8.1f MB, %7.3fs wire-busy\n",
				cs.Class.String(), cs.Transfers, float64(cs.Bytes)/1e6, cs.Busy.Seconds())
		}
		if *scaler != "" {
			fmt.Printf("autoscaling         %s: %d scale-ups, %d scale-downs, %d warm-up-stalled arrivals\n",
				*scaler, cres.ScaleUps, cres.ScaleDowns, cres.WarmupStalls)
			fmt.Printf("GPU-seconds         %.0f (fixed %d-replica pool would burn %.0f)\n",
				cres.GPUSeconds, len(cres.Replicas),
				float64(len(cres.Replicas))*res.Makespan.Seconds())
			if *prewarm {
				fmt.Printf("KV pre-warm         %d pins shipped (%d tokens)\n",
					cres.Prewarms, cres.PrewarmedTokens)
			}
			if *minReps == 0 {
				fmt.Printf("scale-to-zero       %d arrivals buffered in the gateway, %d shed\n",
					cres.GatewayBuffered, cres.GatewayShed)
			}
			if cres.ForecastSamples > 0 {
				fmt.Printf("forecast            MAE %.2f req/s over %d scored forecasts\n",
					cres.ForecastError, cres.ForecastSamples)
			}
			for _, ev := range cres.ScaleEvents {
				fmt.Printf("  t=%7.2fs  replica %d  %s\n", ev.At.Seconds(), ev.Replica, ev.Kind)
			}
		}
		for _, rr := range cres.Replicas {
			fmt.Printf("  replica %d (%s)  %d routed, %d finished, p99 TTFT %.2fs, %d pages pinned, %s\n",
				rr.ID, rr.GPU, rr.Routed, rr.Result.Finished, rr.Result.P99TTFT.Seconds(),
				rr.KV.PinnedPages, rr.State)
		}
	} else {
		var err error
		res, err = tokenflow.Run(cfg, w)
		if err != nil {
			return err
		}
		ocap = res.Obs
	}

	fmt.Printf("system              %s\n", res.System)
	fmt.Printf("requests            %d finished / %d total (timed out: %v)\n", res.Finished, res.N, res.TimedOut)
	fmt.Printf("makespan            %.2fs\n", res.Makespan.Seconds())
	fmt.Printf("throughput          %.1f tok/s\n", res.Throughput)
	fmt.Printf("effective thpt      %.1f tok/s\n", res.EffectiveThroughput)
	fmt.Printf("QoS                 %.1f\n", res.QoS)
	fmt.Printf("TTFT mean/p50/p99   %.2fs / %.2fs / %.2fs\n",
		res.MeanTTFT.Seconds(), res.P50TTFT.Seconds(), res.P99TTFT.Seconds())
	fmt.Printf("total rebuffer      %.2fs across %d requests\n", res.TotalRebuffer.Seconds(), res.N)
	fmt.Printf("preemptions         %d\n", res.Preemptions)
	if *obsOut != "" {
		fmt.Printf("events recorded     %d (exported to %s)\n", ocap.EventCount(), *obsOut)
	}
	return nil
}
