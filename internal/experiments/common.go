// Package experiments regenerates every table and figure of the paper's
// evaluation (§7), plus the cluster studies built on top of it, on the
// simulated substrate. Each registered experiment runs its workloads and
// returns a Table of the same rows/series the paper plots;
// cmd/tokenflow-bench prints the ones its arguments select by registry ID
// (all of them by default): go run ./cmd/tokenflow-bench <id>...
//
// Experiment sizes scale with Scale, which tokenflow-bench and the root
// benchmarks set from the TOKENFLOW_SCALE environment variable
// (ScaleFromEnv; unset = 1.0, paper scale).
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Scale stretches or shrinks experiment sizes (burst counts, trace
// durations); 1.0 is paper scale.
var Scale = 1.0

// ScaleFromEnv parses TOKENFLOW_SCALE for Scale: unset or empty means
// paper scale (1.0), and any other value must be a finite number above
// zero. A bad value is an error rather than a silent fall-back, because
// the fall-back is the full-size run.
func ScaleFromEnv() (float64, error) {
	return parseScale(os.Getenv("TOKENFLOW_SCALE"))
}

func parseScale(v string) (float64, error) {
	if v == "" {
		return 1.0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("TOKENFLOW_SCALE=%q: want a finite number above 0", v)
	}
	return f, nil
}

// scaled applies Scale to a count with a floor of 1.
func scaled(n int) int {
	v := int(float64(n) * Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// scaledDur applies Scale to a duration in seconds.
func scaledDur(sec float64) simclock.Time {
	return simclock.FromSeconds(sec * Scale)
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// WriteCSV writes the header and rows as CSV (RFC 4180 quoting); the
// title and notes are left out.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// Paper deployments (§7.1.1). H200 controlled experiments start with
// mem-frac 0.3 (§7.3); the smaller cards use SGLang's 0.9 default.
var (
	depH200Llama   = cluster.Deployment{GPU: gpu.H200, Model: model.Llama3_8B, MemFraction: 0.3}
	depH200Qwen32  = cluster.Deployment{GPU: gpu.H200, Model: model.Qwen25_32B, MemFraction: 0.9}
	dep4090Llama   = cluster.Deployment{GPU: gpu.RTX4090, Model: model.Llama3_8B, MemFraction: 0.9}
	depA6000Qwen   = cluster.Deployment{GPU: gpu.A6000, Model: model.Qwen25_7B, MemFraction: 0.9}
	depAscendLlama = cluster.Deployment{GPU: gpu.Ascend910B, Model: model.Llama3_8B, MemFraction: 0.9}
)

// SystemSpec names a system and constructs its scheduler + KV policy.
type SystemSpec struct {
	Name string
	Make func() (sched.Scheduler, engine.KVPolicy, error)
}

// system is the named system of the shared table (engine.NewSystem), with
// TokenFlow tuned by tf.
func system(name string, tf core.Config) SystemSpec {
	return SystemSpec{name, func() (sched.Scheduler, engine.KVPolicy, error) {
		return engine.NewSystem(name, tf)
	}}
}

// tokenFlow is TokenFlow at its default tuning: the system every cluster
// experiment's replicas run.
var tokenFlow = system(engine.SystemTokenFlow, core.DefaultConfig())

// withKV is s running the KV policy kv in place of its own.
func (s SystemSpec) withKV(kv engine.KVPolicy) SystemSpec {
	return SystemSpec{s.Name, func() (sched.Scheduler, engine.KVPolicy, error) {
		sch, _, err := s.Make()
		return sch, kv, err
	}}
}

// systems is the evaluation's lineup, in the paper's order, each system
// at its default tuning.
func systems() []SystemSpec {
	var specs []SystemSpec
	for _, name := range engine.Systems() {
		specs = append(specs, system(name, core.DefaultConfig()))
	}
	return specs
}

// runOne simulates one system on one workload: a one-replica round-robin
// cluster, whose only replica's result is the device's own.
func runOne(dep cluster.Deployment, spec SystemSpec, w trace.Workload, sampleEvery time.Duration) (*engine.Result, error) {
	res, err := runCluster(cluster.Config{Policy: router.NewRoundRobin(), SampleEvery: sampleEvery},
		cluster.Engines([]cluster.Deployment{dep}, spec.Make), w)
	if err != nil {
		return nil, err
	}
	return res.PerReplica[0].Result, nil
}

// runCluster builds the cluster and runs the workload on it.
func runCluster(cfg cluster.Config, build cluster.BuildEngine, w trace.Workload) (*cluster.Result, error) {
	cl, err := cluster.New(cfg, build)
	if err != nil {
		return nil, err
	}
	return cl.Run(w)
}

// runRecorded is runOne on the reference single-device driver, which
// produces the same run and also records every request's per-token
// timeline (request.Timeline), for the figures that replay one.
func runRecorded(dep cluster.Deployment, spec SystemSpec, w trace.Workload) (*engine.Result, error) {
	e, err := cluster.Engines([]cluster.Deployment{dep}, spec.Make)(0, nil, nil)
	if err != nil {
		return nil, err
	}
	return engine.Drive(e, w, 0), nil
}

// runAll simulates every system on the workload concurrently (each run is
// an independent single-threaded simulation).
func runAll(dep cluster.Deployment, specs []SystemSpec, w trace.Workload, sampleEvery time.Duration) (map[string]*engine.Result, error) {
	res, err := runCells(len(specs), func(i int) (*engine.Result, error) {
		r, err := runOne(dep, specs[i], w, sampleEvery)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].Name, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	results := make(map[string]*engine.Result, len(specs))
	for i, r := range res {
		results[specs[i].Name] = r
	}
	return results, nil
}

// runCells runs cell(0) … cell(n-1) concurrently, each an independent
// simulation, and returns their results in cell order, or the error of the
// lowest-index cell that failed.
func runCells[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = cell(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Formatting helpers.

func fsec(d time.Duration) string    { return fmt.Sprintf("%.2fs", d.Seconds()) }
func ftps(v float64) string          { return fmt.Sprintf("%.1f", v) }
func fpct(v float64) string          { return fmt.Sprintf("%+.1f%%", v) }
func fint(v int64) string            { return fmt.Sprintf("%d", v) }
func ffloat(v float64, p int) string { return strconv.FormatFloat(v, 'f', p, 64) }

// metricsRow renders the standard four-metric row for a system result.
func metricsRow(name string, r *engine.Result) []string {
	return []string{
		name,
		ftps(r.Report.EffectiveThroughput),
		ftps(r.Report.Throughput),
		fsec(r.Report.MeanTTFT),
		fsec(r.Report.P99TTFT),
	}
}

var metricsHeader = []string{"system", "eff-thpt(tok/s)", "thpt(tok/s)", "mean-TTFT", "P99-TTFT"}
