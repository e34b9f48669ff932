package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// lifecycleRecorder emits one full request lifecycle plus a shed and a
// declined migration — enough surface for every exporter.
func lifecycleRecorder() *Recorder {
	r := NewRecorder()
	s := simclock.FromSeconds
	r.Emit(s(0.1), KindArrival, -1, 1, 9, 128, 64, 0, 0, "")
	r.Emit(s(0.1), KindRouteDecision, 0, 1, 9, 0, 0, 0, 2.5, "least-queue")
	r.Emit(s(0.1), KindQueue, 0, 1, 9, 32, 0, 0, 0, "")
	r.Emit(s(0.2), KindAdmit, 0, 1, 9, 96, 128, 0, 0, "")
	r.Emit(s(0.5), KindFirstToken, 0, 1, 9, 0, 0, 0, 0, "")
	r.Emit(s(1.5), KindComplete, 0, 1, 9, 64, 0, 0, 0, "")
	r.Emit(s(0.3), KindGatewayShed, -1, 2, 0, 4, 0, 0, 0, "")
	r.Emit(s(0.4), KindMigrateDecline, 1, 3, 9, 0, 2e6, 1e6, 32, "")
	r.Emit(s(0.6), KindMigrateAccept, 1, 4, 9, 0, 32, 4096, 0, "")
	return r
}

// TestWriteJSONLStable: two identical runs produce identical bytes, and
// every line parses as JSON.
func TestWriteJSONLStable(t *testing.T) {
	var a, b strings.Builder
	if err := lifecycleRecorder().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := lifecycleRecorder().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSONL output differs across identical runs")
	}
	sc := bufio.NewScanner(strings.NewReader(a.String()))
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, key := range []string{"seq", "t_ns", "kind", "replica"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing %q: %s", lines, key, sc.Text())
			}
		}
	}
	if lines != 9 {
		t.Fatalf("got %d JSONL lines, want 9", lines)
	}
}

// TestReadEventsJSONL: the export round-trips — reading the JSONL back
// reproduces the canonical event slice exactly, so offline analyzers
// (cmd/tokenflow-trace) see what the run recorded.
func TestReadEventsJSONL(t *testing.T) {
	rec := lifecycleRecorder()
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEventsJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Events()
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: read %+v, want %+v", i, got[i], want[i])
		}
	}

	if _, err := ReadEventsJSONL(strings.NewReader("{\"kind\":\"no-such-kind\"}\n")); err == nil {
		t.Error("unknown kind did not error")
	}
	if _, err := ReadEventsJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line did not error")
	}
}

// TestWriteChromeTrace: the trace parses, carries the three lifecycle
// slices on the serving replica's track, and binds the route flow.
func TestWriteChromeTrace(t *testing.T) {
	var sb strings.Builder
	if err := lifecycleRecorder().WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	slices := map[string]bool{}
	flows := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices[e.Name] = true
			if e.Pid != 0 {
				t.Errorf("slice %q on pid %d, want replica 0", e.Name, e.Pid)
			}
			if e.Dur <= 0 {
				t.Errorf("slice %q has non-positive duration %v", e.Name, e.Dur)
			}
		}
		if e.Ph == "s" || e.Ph == "f" {
			flows++
		}
	}
	for _, want := range []string{"queue", "prefill", "decode"} {
		if !slices[want] {
			t.Errorf("missing %q slice", want)
		}
	}
	if flows < 4 {
		t.Errorf("got %d flow endpoints, want at least 4 (route + migrate)", flows)
	}
}

// TestWriteCSV: long-format output with a header and one row per point.
func TestWriteCSV(t *testing.T) {
	g := NewRegistry()
	g.Observe("replica0/queue_depth", simclock.FromSeconds(1), 3)
	g.Observe("replica0/queue_depth", simclock.FromSeconds(2), 4)
	g.Observe("gateway/depth", simclock.FromSeconds(1), 0)
	var sb strings.Builder
	if err := g.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d CSV lines, want 4:\n%s", len(lines), sb.String())
	}
	if lines[0] != "series,time_s,value" {
		t.Fatalf("bad header %q", lines[0])
	}
	if lines[1] != "replica0/queue_depth,1,3" {
		t.Fatalf("bad first row %q", lines[1])
	}
}

// TestWriteFiles: a full capture lands every artifact on disk.
func TestWriteFiles(t *testing.T) {
	c := &Capture{Events: NewRecorder(), Series: NewRegistry(), Profile: NewProfiler()}
	c.Events.Emit(0, KindArrival, -1, 1, 0, 1, 1, 0, 0, "")
	c.Series.Observe("x", 0, 1)
	c.Profile.End(PhaseEngineStep, c.Profile.Begin())
	dir := t.TempDir()
	paths, err := c.WriteFiles(dir, "test", 123)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("wrote %d files, want 4: %v", len(paths), paths)
	}
}
