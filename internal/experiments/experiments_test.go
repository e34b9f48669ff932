package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact (§7) must be registered.
	want := []string{
		"fig01", "fig02", "fig06", "fig08", "fig09", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "tab01", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "tab02",
		"overhead", "cluster", "hetero", "autoscale", "fabric", "slo",
		"routing", "scale", "chaos",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown ID should not resolve")
	}
}

// TestRegistryIDsUnique: tokenflow-bench -csv names each file after its
// registry ID, so IDs must be unique and each must resolve to itself.
func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := ByID(e.ID); !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) = %q, %v", e.ID, got.ID, ok)
		}
	}
}

// TestTableWriteCSV: the CSV export parses back into the header plus the
// rows, with a comma inside a cell quoted rather than splitting it.
func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"router", "P99-TTFT"},
		Rows:   [][]string{{"least-queue (omniscient)", "1.23s"}, {"a,b", `say "hi"`}},
		Notes:  "left out of the CSV",
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append([][]string{tbl.Header}, tbl.Rows...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CSV round trip = %q, want %q", got, want)
	}
}

// TestParseScale: TOKENFLOW_SCALE is unset (paper scale) or a finite
// number above zero; anything else is an error, never a silent 1.0.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"", 1, true},
		{"0.2", 0.2, true},
		{"abc", 0, false},
		{"0,2", 0, false},
		{"0", 0, false},
		{"-1", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
	} {
		got, err := parseScale(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("parseScale(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "note",
	}
	out := tbl.Format()
	for _, want := range []string{"== X: demo ==", "333", "-- note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestScaledFloors(t *testing.T) {
	old := Scale
	defer func() { Scale = old }()
	Scale = 0.001
	if scaled(10) != 1 {
		t.Error("scaled should floor at 1")
	}
	Scale = 2
	if scaled(10) != 20 {
		t.Error("scaled should multiply")
	}
}

// TestSystemsLineup: the evaluation's lineup is the shared system table,
// in the paper's order.
func TestSystemsLineup(t *testing.T) {
	var got []string
	for _, spec := range systems() {
		got = append(got, spec.Name)
	}
	want := []string{"sglang-chunked", "sglang", "andes", "tokenflow"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lineup = %v, want %v", got, want)
	}
}

// TestRunCells: results come back in cell order, and the lowest-index
// error wins even when a later cell fails first.
func TestRunCells(t *testing.T) {
	got, err := runCells(5, func(i int) (int, error) { return i * i, nil })
	if err != nil || !reflect.DeepEqual(got, []int{0, 1, 4, 9, 16}) {
		t.Fatalf("runCells = %v, %v; want [0 1 4 9 16], nil", got, err)
	}
	lateFailed := make(chan struct{})
	_, err = runCells(4, func(i int) (int, error) {
		switch i {
		case 1:
			<-lateFailed // fail only after cell 3 has failed
			return 0, errors.New("cell 1")
		case 3:
			defer close(lateFailed)
			return 0, errors.New("cell 3")
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 1" {
		t.Errorf("runCells error = %v, want cell 1", err)
	}
}

// The fast experiments run end-to-end in tests; the heavy ones are covered
// by the root bench harness.
func TestFastExperiments(t *testing.T) {
	old := Scale
	Scale = 0.05
	defer func() { Scale = old }()
	for _, id := range []string{"fig01", "fig06", "fig08", "fig10", "fig11", "tab01"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestFig06ShowsPreemption(t *testing.T) {
	tbl, err := Fig06()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Notes, "preemption") {
		t.Errorf("notes = %q", tbl.Notes)
	}
	// The toy must exhibit at least one preemption cycle.
	if strings.Contains(tbl.Notes, "0 preemption(s)") {
		t.Error("toy example should preempt at least once")
	}
}

func TestFig08Ordering(t *testing.T) {
	tbl, err := Fig08()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: write-back, write-through, rearranged — latency must strictly
	// decrease down the table.
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	parse := func(s string) float64 {
		v, err := parseMs(s)
		if err != nil {
			t.Fatalf("bad latency cell %q", s)
		}
		return v
	}
	wb := parse(tbl.Rows[0][1])
	wt := parse(tbl.Rows[1][1])
	re := parse(tbl.Rows[2][1])
	if !(re < wt && wt < wb) {
		t.Errorf("latencies should strictly improve: %v > %v > %v", wb, wt, re)
	}
}

// parseMs parses "12.34ms" into millis.
func parseMs(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// TestChaosRedundancyRecovery pins the chaos experiment's headline
// claim: a mid-spike crash damages post-crash P99 TTFT, and 2-way pin
// redundancy measurably reduces that damage — the survivors repin lost
// prefixes from host mirrors instead of recomputing them. The cells are
// fixed-size (see chaosWorkload), so the regime holds regardless of
// TOKENFLOW_SCALE.
func TestChaosRedundancyRecovery(t *testing.T) {
	cells, err := RunChaosCells()
	if err != nil {
		t.Fatal(err)
	}
	base := cells.PostCrashP99(cells.Baseline)
	crash := cells.PostCrashP99(cells.Crash)
	red := cells.PostCrashP99(cells.Redundant)
	if crash <= base {
		t.Fatalf("crash did not damage post-crash P99: crash %v <= baseline %v", crash, base)
	}
	crashDamage := crash - base
	redDamage := red - base
	if redDamage >= crashDamage*3/4 {
		t.Errorf("K=2 redundancy should buy back at least a quarter of the tail damage: "+
			"baseline %v, crash %v (damage %v), K=2 %v (damage %v)",
			base, crash, crashDamage, red, redDamage)
	}
	// The machinery the headline rests on must actually have run.
	if cells.Crash.Crashes != 1 || cells.Redundant.Crashes != 1 {
		t.Errorf("crashes = %d / %d, want 1 each", cells.Crash.Crashes, cells.Redundant.Crashes)
	}
	if cells.Crash.Retries == 0 || cells.Redundant.Retries == 0 {
		t.Errorf("no retries recorded: %d / %d", cells.Crash.Retries, cells.Redundant.Retries)
	}
	if cells.Redundant.Replications == 0 || cells.Redundant.ReplicatedBytes == 0 {
		t.Errorf("redundant cell moved no mirror bytes: %d transfers, %d bytes",
			cells.Redundant.Replications, cells.Redundant.ReplicatedBytes)
	}
	if cells.Crash.RetryFailures != 0 || cells.Redundant.RetryFailures != 0 {
		t.Errorf("unexpected permanent failures: %d / %d",
			cells.Crash.RetryFailures, cells.Redundant.RetryFailures)
	}
	if cells.Baseline.Crashes != 0 || cells.Baseline.Retries != 0 || cells.Baseline.Replications != 0 {
		t.Errorf("baseline cell saw chaos traffic: %+v", cells.Baseline)
	}
}

// TestRoutingCrossover pins the staleness curve's shape at paper scale: the
// zero-lag indexed run must reproduce omniscient session-affinity exactly
// (same Report, request for request) and beat omniscient least-queue on P99
// TTFT; the most stale point must lose to least-queue — the crossover the
// routing experiment exists to locate.
func TestRoutingCrossover(t *testing.T) {
	curve, err := RunRoutingCurve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(curve.Points[0].Res.Report, curve.Affinity.Report) {
		t.Errorf("zero-lag indexed report diverged from omniscient affinity:\n%+v\n%+v",
			curve.Points[0].Res.Report, curve.Affinity.Report)
	}
	freshWins, staleLoses := curve.Crossover()
	if !freshWins {
		t.Errorf("fresh index lost to omniscient least-queue on P99 TTFT: %s vs %s",
			curve.Points[0].Res.Report.P99TTFT, curve.LeastQueue.Report.P99TTFT)
	}
	if !staleLoses {
		t.Errorf("stalest index still beat omniscient least-queue on P99 TTFT: %s vs %s",
			curve.Points[len(curve.Points)-1].Res.Report.P99TTFT, curve.LeastQueue.Report.P99TTFT)
	}
}
