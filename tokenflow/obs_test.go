package tokenflow_test

// Public-surface contract of the flight recorder: the zero ObsSpec is
// pure (results identical to an uninstrumented run, Obs nil), and an
// instrumented run's Out directory holds valid Chrome trace JSON,
// parseable JSONL, CSV series, a profile report and the attribution
// report.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/tokenflow"
)

func obsClusterConfig(spec tokenflow.ObsSpec) tokenflow.ClusterConfig {
	return tokenflow.ClusterConfig{
		Config: tokenflow.Config{
			System:          tokenflow.SystemTokenFlow,
			GPU:             "RTX-4090",
			Model:           "Llama3-8B",
			MemFraction:     0.9,
			HostPrefixCache: true,
			SampleEvery:     500 * time.Millisecond,
			Obs:             spec,
		},
		Replicas: 2,
		Router:   tokenflow.RouterSessionAffinity,
		Migrate:  true,
	}
}

// TestObsSpecZeroValueIsPure: the default spec records nothing, attaches
// no capture, and leaves both Run and RunCluster results deep-equal to
// instrumented runs with the capture set aside.
func TestObsSpecZeroValueIsPure(t *testing.T) {
	w := tokenflow.SessionWorkload(24, 60, 20, 42)
	full := tokenflow.ObsSpec{Events: true, Series: true, Profile: true, Attribution: true}

	t.Run("cluster", func(t *testing.T) {
		off, err := tokenflow.RunCluster(obsClusterConfig(tokenflow.ObsSpec{}), w)
		if err != nil {
			t.Fatal(err)
		}
		if off.Obs != nil {
			t.Fatal("zero ObsSpec attached a capture")
		}
		if off.Attribution != nil {
			t.Fatal("zero ObsSpec attached an attribution report")
		}
		on, err := tokenflow.RunCluster(obsClusterConfig(full), w)
		if err != nil {
			t.Fatal(err)
		}
		if on.Obs == nil || on.Obs.EventCount() == 0 {
			t.Fatal("instrumented run recorded no events")
		}
		if on.Attribution == nil || on.Attribution.Requests == 0 {
			t.Fatal("instrumented run produced no attribution report")
		}
		on.Obs, on.Attribution = nil, nil
		if !reflect.DeepEqual(off, on) {
			t.Fatal("instrumented cluster run diverged from uninstrumented run")
		}
	})

	t.Run("single-device", func(t *testing.T) {
		cfg := tokenflow.Config{System: tokenflow.SystemTokenFlow, GPU: "RTX-4090"}
		off, err := tokenflow.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if off.Obs != nil {
			t.Fatal("zero ObsSpec attached a capture")
		}
		// Attribution alone attaches no capture: its report lands in
		// ClusterResult.Attribution (or Out), which Run's Result lacks.
		cfg.Obs = tokenflow.ObsSpec{Attribution: true}
		aoff, err := tokenflow.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if aoff.Obs != nil {
			t.Fatal("attribution-only spec attached a capture to single-device Run")
		}
		cfg.Obs = tokenflow.ObsSpec{Events: true, Profile: true}
		on, err := tokenflow.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if on.Obs == nil || on.Obs.EventCount() == 0 {
			t.Fatal("instrumented run recorded no events")
		}
		on.Obs = nil
		if !reflect.DeepEqual(off, on) {
			t.Fatal("instrumented single-device run diverged from uninstrumented run")
		}
	})
}

// TestObsExportsAreValid runs an instrumented cluster and validates every
// file its Out directory received.
func TestObsExportsAreValid(t *testing.T) {
	dir := t.TempDir()
	spec := tokenflow.ObsSpec{
		Events: true, Series: true, Profile: true, Attribution: true,
		Out: filepath.Join(dir, "obs"),
	}
	w := tokenflow.SessionWorkload(24, 60, 20, 42)
	res, err := tokenflow.RunCluster(obsClusterConfig(spec), w)
	if err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(spec.Out, name))
		if err != nil {
			t.Fatalf("Out directory lacks %s: %v", name, err)
		}
		return b
	}

	// Chrome trace: a JSON document with a non-empty traceEvents array.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(read("trace.json"), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}

	// JSONL: every line an object with the stable fields.
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(read("events.jsonl")))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("JSONL line %d does not parse: %v", lines+1, err)
		}
		if _, ok := e["kind"]; !ok {
			t.Fatalf("JSONL line %d lacks a kind", lines+1)
		}
		lines++
	}
	if lines != res.Obs.EventCount() {
		t.Fatalf("JSONL has %d lines, recorder holds %d events", lines, res.Obs.EventCount())
	}

	// Series CSV: header plus data, including the host-mirror series.
	csv := read("series.csv")
	if !bytes.HasPrefix(csv, []byte("series,time_s,value\n")) {
		t.Fatal("series CSV lacks the header")
	}
	for _, name := range []string{"replica0/queue_depth", "replica0/kv_util",
		"replica0/host_mirror_bytes", "cluster/active_replicas"} {
		if !bytes.Contains(csv, []byte(name)) {
			t.Fatalf("series CSV lacks %q", name)
		}
	}

	// Profile: the profile.json shape with the engine-step phase hot.
	var prof struct {
		Scenario string `json:"scenario"`
		Events   int    `json:"events"`
		Phases   map[string]struct {
			Calls uint64 `json:"calls"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(read("profile.json"), &prof); err != nil {
		t.Fatalf("profile JSON does not parse: %v", err)
	}
	if prof.Events != res.Obs.EventCount() || prof.Phases["engine_step"].Calls == 0 {
		t.Fatalf("profile report inconsistent: %+v", prof)
	}

	// Attribution: phases conserve the measured latencies on every
	// retained span, and attribution.json carries the report.
	if res.Attribution == nil || res.Attribution.Requests == 0 {
		t.Fatal("attribution report missing")
	}
	for _, s := range res.Attribution.Slowest {
		if s.PhaseSum() != s.E2E() || s.PhaseSumTTFT() != s.TTFT() {
			t.Errorf("request %d: phase sums %v/%v do not match TTFT %v / E2E %v",
				s.Request, s.PhaseSumTTFT(), s.PhaseSum(), s.TTFT(), s.E2E())
		}
	}
	var arep struct {
		Requests int64            `json:"requests"`
		Metrics  []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(read("attribution.json"), &arep); err != nil {
		t.Fatalf("attribution JSON does not parse: %v", err)
	}
	if arep.Requests != res.Attribution.Requests || len(arep.Metrics) == 0 {
		t.Fatalf("attribution JSON inconsistent: %+v", arep)
	}

	// The host-mirror report fields agree across levels.
	var sum int64
	for _, rr := range res.Replicas {
		if (rr.KV.HostMirrorBytes > 0) != (rr.KV.HostMirroredPages > 0) {
			t.Errorf("replica %d: mirror bytes %d vs pages %d disagree",
				rr.ID, rr.KV.HostMirrorBytes, rr.KV.HostMirroredPages)
		}
		sum += rr.KV.HostMirrorBytes
	}
	if res.HostMirrorBytes != sum {
		t.Errorf("cluster HostMirrorBytes %d != per-replica sum %d", res.HostMirrorBytes, sum)
	}
}
