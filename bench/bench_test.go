package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Fakes covering every combination of optional interfaces, and counting
// the calls that reach them through a wrapper.

type countPolicy struct {
	picks int
	idx   *prefixindex.Index
}

func (p *countPolicy) Name() string                              { return "count" }
func (p *countPolicy) Pick(router.Request, []router.Replica) int { p.picks++; return 0 }

type scorerPolicy struct{ countPolicy }

func (p *scorerPolicy) Score(router.Request, router.Replica) float64 { return 1 }

type binderPolicy struct{ countPolicy }

func (p *binderPolicy) BindIndex(x *prefixindex.Index) { p.idx = x }

type scorerBinderPolicy struct{ binderPolicy }

func (p *scorerBinderPolicy) Score(router.Request, router.Replica) float64 { return 1 }

type countSched struct{ decides int }

func (s *countSched) Name() string                      { return "count" }
func (s *countSched) Decide(*sched.View) sched.Decision { s.decides++; return sched.Decision{} }
func (s *countSched) PrefillChunkTokens() int           { return 0 }

type wakerSched struct{ countSched }

func (s *wakerSched) NextDecisionTime(now simclock.Time) simclock.Time { return now + 5 }

type countScaler struct{ decides int }

func (p *countScaler) Name() string { return "count" }
func (p *countScaler) Decide(autoscale.Signals) autoscale.Decision {
	p.decides++
	return autoscale.Hold
}

type observerScaler struct{ countScaler }

func (p *observerScaler) ObservesTTFT() bool { return true }

type forecasterScaler struct{ countScaler }

func (p *forecasterScaler) ForecastError() (float64, int) { return 1.5, 3 }

type bothScaler struct{ forecasterScaler }

func (p *bothScaler) ObservesTTFT() bool { return true }

// checkCounted asserts that calls made through a wrapper reach the inner
// value and land on the caller's timer, one in sampleEvery timed.
func checkCounted(t *testing.T, what string, tm *timer, inner, calls int) {
	t.Helper()
	if inner != calls || tm.calls != int64(calls) {
		t.Errorf("%s: %d calls reached the inner value and %d were counted, want %d", what, inner, tm.calls, calls)
	}
	if want := (calls + sampleEvery - 1) / sampleEvery; len(tm.samples) != want {
		t.Errorf("%s: %d calls timed, want %d", what, len(tm.samples), want)
	}
}

func TestPolicyWrapperForwards(t *testing.T) {
	cases := []router.Policy{&countPolicy{}, &scorerPolicy{}, &binderPolicy{}, &scorerBinderPolicy{}}
	for _, name := range router.Names() {
		p, err := router.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, p)
	}
	for _, p := range cases {
		tm := &timer{}
		w := wrapPolicy(p, tm)
		what := reflect.TypeOf(p).String() + " " + p.Name()
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapper is named %q", what, w.Name())
		}
		_, scorer := p.(router.Scorer)
		_, wScorer := w.(router.Scorer)
		_, binder := p.(router.IndexBinder)
		wb, wBinder := w.(router.IndexBinder)
		if scorer != wScorer || binder != wBinder {
			t.Errorf("%s: Scorer %v→%v, IndexBinder %v→%v", what, scorer, wScorer, binder, wBinder)
		}
		counter, ok := p.(interface{ counts() *countPolicy })
		if !ok {
			continue
		}
		for i := 0; i < 33; i++ {
			w.Pick(router.Request{}, nil)
		}
		c := counter.counts()
		checkCounted(t, what, tm, c.picks, 33)
		if wBinder {
			x, err := prefixindex.New(prefixindex.Spec{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			wb.BindIndex(x)
			if c.idx != x {
				t.Errorf("%s: BindIndex did not reach the inner policy", what)
			}
		}
	}
}

func (p *countPolicy) counts() *countPolicy { return p }

func TestSchedulerWrapperForwards(t *testing.T) {
	tf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{&countSched{}, &wakerSched{}, sched.NewSGLang(), sched.NewAndes(), tf} {
		tm := &timer{}
		w := wrapScheduler(s, tm)
		what := reflect.TypeOf(s).String()
		if w.Name() != s.Name() || w.PrefillChunkTokens() != s.PrefillChunkTokens() {
			t.Errorf("%s: Name or PrefillChunkTokens not forwarded", what)
		}
		iw, waker := s.(sched.Waker)
		ww, wWaker := w.(sched.Waker)
		if waker != wWaker {
			t.Errorf("%s: Waker %v→%v", what, waker, wWaker)
		}
		if waker && ww.NextDecisionTime(10) != iw.NextDecisionTime(10) {
			t.Errorf("%s: NextDecisionTime not forwarded", what)
		}
		var c *countSched
		switch s := s.(type) {
		case *countSched:
			c = s
		case *wakerSched:
			c = &s.countSched
		default:
			continue
		}
		for i := 0; i < 40; i++ {
			w.Decide(&sched.View{})
		}
		checkCounted(t, what, tm, c.decides, 40)
	}
}

func TestScalerWrapperForwards(t *testing.T) {
	cases := []autoscale.Policy{&countScaler{}, &observerScaler{}, &forecasterScaler{}, &bothScaler{}}
	for _, name := range autoscale.Names() {
		p, err := autoscale.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, p)
	}
	for _, p := range cases {
		tm := &timer{}
		w := wrapScaler(p, tm)
		what := reflect.TypeOf(p).String()
		_, observer := p.(autoscale.TTFTObserver)
		_, wObserver := w.(autoscale.TTFTObserver)
		f, forecaster := p.(autoscale.Forecaster)
		wf, wForecaster := w.(autoscale.Forecaster)
		if observer != wObserver || forecaster != wForecaster || w.Name() != p.Name() {
			t.Errorf("%s: TTFTObserver %v→%v, Forecaster %v→%v", what, observer, wObserver, forecaster, wForecaster)
		}
		if autoscale.ObservesTTFT(w) != autoscale.ObservesTTFT(p) {
			t.Errorf("%s: ObservesTTFT not forwarded", what)
		}
		if forecaster {
			m, n := f.ForecastError()
			if wm, wn := wf.ForecastError(); wm != m || wn != n {
				t.Errorf("%s: ForecastError not forwarded", what)
			}
		}
		var c *countScaler
		switch p := p.(type) {
		case *countScaler:
			c = p
		case *observerScaler:
			c = &p.countScaler
		case *forecasterScaler:
			c = &p.countScaler
		case *bothScaler:
			c = &p.countScaler
		default:
			continue
		}
		for i := 0; i < 17; i++ {
			w.Decide(autoscale.Signals{})
		}
		checkCounted(t, what, tm, c.decides, 17)
	}
}

// TestWorkloadsPassGate runs every workload at a hundredth of its size
// untraced, traced and attribution-toggled: each run must pass the
// correctness gate, the three fingerprints must agree, and the traced
// wrappers must have counted the layers each workload exercises.
func TestWorkloadsPassGate(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var fps []string
			var traced *repResult
			for _, mode := range []string{modeUntraced, modeTraced, modeToggled} {
				r, err := runRep(w, goldenSeed, 0.01, mode)
				if err != nil {
					t.Fatal(err)
				}
				if r.Error != "" {
					t.Fatalf("%s: %s", mode, r.Error)
				}
				fps = append(fps, r.Fingerprint)
				if mode == modeTraced {
					traced = r
				}
			}
			if fps[0] != fps[1] || fps[0] != fps[2] {
				t.Errorf("fingerprints differ across modes: %v", fps)
			}
			tm := traced.Timings
			picks, requests := tm["router.pick.calls"], float64(traced.Requests)
			if w.name == "scale-rr-500" {
				if picks != 0 {
					t.Errorf("fast path picked %v times; arrivals should be pre-routed", picks)
				}
			} else if picks < requests {
				t.Errorf("counted %v picks for %v requests", picks, requests)
			}
			if tm["sched.decide.calls"] == 0 || tm["engine.step.calls"] == 0 {
				t.Errorf("no scheduler decisions or engine steps counted: %v", tm)
			}
			if w.name == "docs-chaos-64" {
				if tm["autoscale.decide.calls"] == 0 || traced.Counts["prefixindex.published"] == 0 {
					t.Errorf("autoscale or prefix index idle on %s: %v %v", w.name, tm, traced.Counts)
				}
			}
		})
	}
}

func TestFingerprintIgnoresEventCounts(t *testing.T) {
	w, err := workloadByName("burst-preempt-16")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.config(0.01)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cfg, buildEngine(w.kv, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w.gen(goldenSeed, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprint(res)
	res.EventsProcessed++
	for i := range res.TransferClasses {
		res.TransferClasses[i].Transfers++
	}
	if fingerprint(res) != base {
		t.Error("fingerprint moved with event or transfer counts")
	}
	res.Requests[0].FirstTokenAt++
	if fingerprint(res) == base {
		t.Error("fingerprint ignored a request's first-token time")
	}
}

func TestCalibrationKernel(t *testing.T) {
	if _, err := newKernel().calibrate(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the program, and golden.json covering every workload.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(golden[w.name]) != 64 {
			t.Errorf("golden.json has no fingerprint for %s", w.name)
		}
	}
	for _, c := range []struct {
		what string
		json []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s [%s]", c.what, i, c.json[i], d.name, d.unit)
			}
		}
	}
}
