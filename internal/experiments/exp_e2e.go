package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// Fig11 reproduces Figure 11: the distribution of the real-world
// (industrial) trace — prompt/output length percentiles and the arrival
// rate over time buckets.
func Fig11() (*Table, error) {
	w := industrialTrace("industrial", 600, 4, 20, 11)
	s := w.Summarize()
	t := &Table{
		ID:     "Figure 11",
		Title:  "Real-world trace distribution (industrial generator)",
		Header: []string{"statistic", "value"},
		Rows: [][]string{
			{"requests", fint(int64(s.Count))},
			{"mean prompt", ffloat(s.MeanPrompt, 1)},
			{"p50 prompt", fint(int64(s.P50Prompt))},
			{"p99 prompt", fint(int64(s.P99Prompt))},
			{"mean output", ffloat(s.MeanOutput, 1)},
			{"p50 output", fint(int64(s.P50Output))},
			{"p99 output", fint(int64(s.P99Output))},
			{"arrivals/s", ffloat(s.ArrivalsPerS, 2)},
		},
	}
	// Arrival-rate waves: bucket arrivals into ten windows.
	buckets := make([]int, 10)
	dur := w.Duration()
	for _, it := range w.Items {
		idx := int(float64(it.Arrival) / float64(dur+1) * 10)
		buckets[idx]++
	}
	for i, n := range buckets {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("arrivals[%d0%%]", i),
			fint(int64(n)),
		})
	}
	t.Notes = "Paper shape: bimodal prompt lengths (short interactive + long RAG mode) and wavy arrival intensity."
	return t, nil
}

// Fig12 reproduces Figure 12: end-to-end metrics on H200 with Llama3-8B
// over BurstGPT-like and industrial traces.
func Fig12() (*Table, error) {
	return endToEnd("Figure 12", "End-to-end, H200 + Llama3-8B", depH200Llama, 3, 350)
}

// Fig13 reproduces Figure 13: end-to-end metrics on A6000 with
// Qwen2.5-7B.
func Fig13() (*Table, error) {
	return endToEnd("Figure 13", "End-to-end, A6000 + Qwen2.5-7B", depA6000Qwen, 1.5, 300)
}

func endToEnd(id, title string, dep cluster.Deployment, baseRate float64, spikeSize int) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Header: append([]string{"trace"}, metricsHeader...)}
	traces := []struct {
		name string
		w    trace.Workload
	}{
		{"burstgpt", burstGPTTrace("burstgpt", 180, baseRate, spikeSize, 20, 7)},
		{"industrial", industrialTrace("industrial", 180, baseRate*1.5, 20, 7)},
	}
	for _, tr := range traces {
		results, err := runAll(dep, systems(), tr.w, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tr.name, err)
		}
		for _, spec := range systems() {
			t.Rows = append(t.Rows, append([]string{tr.name}, metricsRow(spec.Name, results[spec.Name])...))
		}
	}
	t.Notes = "Paper shape: ~52.6% mean-TTFT reduction and 37-45% effective-throughput gain for TokenFlow."
	return t, nil
}

// Fig14 and Fig15 reproduce the long-term trace experiment: temporal
// variation of queued (Fig 14) and running (Fig 15) requests while
// stress-testing Qwen2.5-32B on H200 with a 20-minute BurstGPT trace.
func Fig14() (*Table, error) { return timelineExperiment("Figure 14", "queued") }

// Fig15 is the running-request counterpart of Fig14.
func Fig15() (*Table, error) { return timelineExperiment("Figure 15", "running") }

func timelineExperiment(id, series string) (*Table, error) {
	w := burstGPTTrace("longterm", 1200, 2, 700, 20, 14)
	results, err := runAll(depH200Qwen32, systems(), w, 10*time.Second)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Temporal variation of %s requests (Qwen2.5-32B on H200, 20-min BurstGPT)", series),
		Header: []string{"t(s)"},
	}
	names := make([]string, 0, len(results))
	for _, spec := range systems() {
		names = append(names, spec.Name)
		t.Header = append(t.Header, spec.Name)
	}
	// Align samples on the common grid (all engines sample at the same
	// cadence but stop at different times; report the union, padding).
	maxLen := 0
	for _, n := range names {
		if l := len(results[n].Samples); l > maxLen {
			maxLen = l
		}
	}
	step := maxLen / 24
	if step < 1 {
		step = 1
	}
	for i := 0; i < maxLen; i += step {
		row := []string{}
		for _, n := range names {
			s := results[n].Samples
			if i < len(s) {
				if len(row) == 0 {
					row = append(row, ffloat(s[i].At.Seconds(), 0))
				}
				if series == "queued" {
					row = append(row, fint(int64(s[i].Queued)))
				} else {
					row = append(row, fint(int64(s[i].Running)))
				}
			} else {
				if len(row) == 0 {
					row = append(row, "-")
				}
				row = append(row, "0")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	// Summary rows: the instantaneous peak (set by the spike size itself)
	// and the time-average, which reflects how fast each system drains the
	// backlog — the paper's Figure 14/15 comparison.
	peak := []string{"peak"}
	mean := []string{"mean"}
	for _, n := range names {
		p, sum, cnt := 0, 0, 0
		for _, s := range results[n].Samples {
			v := s.Queued
			if series == "running" {
				v = s.Running
			}
			if v > p {
				p = v
			}
			sum += v
			cnt++
		}
		peak = append(peak, fint(int64(p)))
		m := 0.0
		if cnt > 0 {
			m = float64(sum) / float64(cnt)
		}
		mean = append(mean, ffloat(m, 1))
	}
	t.Rows = append(t.Rows, peak, mean)
	if series == "queued" {
		t.Notes = "Paper shape: TokenFlow keeps the queued-request peak below the baselines under load spikes."
	} else {
		t.Notes = "Paper shape: TokenFlow sustains higher running concurrency via preemptive multiplexing."
	}
	return t, nil
}

// Fig02 reproduces Figure 2: the SGLang burst micro-benchmark on H200 —
// TTFT surging past the 1.3s engagement threshold while generation speed
// stays far above reading speed.
func Fig02() (*Table, error) {
	t := &Table{
		ID:     "Figure 2",
		Title:  "SGLang burst handling on H200 (micro-benchmark)",
		Header: []string{"burst-load", "mean-TTFT", "P99-TTFT", "mean-speed(tok/s)", "target-TTFT", "target-speed"},
	}
	base := scaled(400)
	for _, load := range []float64{0.25, 0.5, 0.75, 1.0} {
		n := int(float64(base) * load)
		if n < 1 {
			n = 1
		}
		w := trace.Burst("fig2", n, 0, lengthDist(512, 4096), trace.FixedRate(8), 2)
		res, err := runOne(depH200Llama, systems()[1], w, 0)
		if err != nil {
			return nil, err
		}
		// Mean per-request generation speed over each request's own span.
		var speeds []float64
		for _, rm := range res.Report.Requests {
			if rm.GenRate > 0 {
				speeds = append(speeds, rm.GenRate)
			}
		}
		sort.Float64s(speeds)
		var sum float64
		for _, s := range speeds {
			sum += s
		}
		mean := 0.0
		if len(speeds) > 0 {
			mean = sum / float64(len(speeds))
		}
		t.Rows = append(t.Rows, []string{
			ffloat(load, 2),
			fsec(res.Report.MeanTTFT),
			fsec(res.Report.P99TTFT),
			ftps(mean),
			"1.30s",
			"16.0 (2x reading)",
		})
	}
	t.Notes = "Paper shape: TTFT blows past 1.3s (>20s at peak) while per-request speed stays well above 2x reading speed — the resource misallocation motivating TokenFlow."
	return t, nil
}
