package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/simclock"
)

// WriteJSONL writes the recorded events as one JSON object per line, in
// the canonical (At, Replica, Seq) order with Seq renumbered to the
// canonical position. The encoder emits a fixed field order and fixed
// number formatting, so output is byte-stable across runs of the same
// scenario.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Events() {
		bw.WriteString(`{"seq":`)
		bw.WriteString(strconv.FormatUint(e.Seq, 10))
		bw.WriteString(`,"t_ns":`)
		bw.WriteString(strconv.FormatInt(int64(e.At), 10))
		bw.WriteString(`,"kind":"`)
		bw.WriteString(e.Kind.String())
		bw.WriteString(`","replica":`)
		bw.WriteString(strconv.FormatInt(int64(e.Replica), 10))
		bw.WriteString(`,"request":`)
		bw.WriteString(strconv.FormatInt(int64(e.Request), 10))
		bw.WriteString(`,"session":`)
		bw.WriteString(strconv.FormatInt(int64(e.Session), 10))
		bw.WriteString(`,"a":`)
		bw.WriteString(strconv.FormatInt(e.A, 10))
		bw.WriteString(`,"b":`)
		bw.WriteString(strconv.FormatInt(e.B, 10))
		bw.WriteString(`,"c":`)
		bw.WriteString(strconv.FormatInt(e.C, 10))
		if e.F != 0 {
			bw.WriteString(`,"f":`)
			bw.WriteString(strconv.FormatFloat(e.F, 'g', -1, 64))
		}
		if e.Label != "" {
			bw.WriteString(`,"label":`)
			lbl, err := json.Marshal(e.Label)
			if err != nil {
				return err
			}
			bw.Write(lbl)
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// jsonlEvent is the wire shape of one events.jsonl line, mirroring the
// field order WriteJSONL emits.
type jsonlEvent struct {
	Seq     uint64  `json:"seq"`
	TNs     int64   `json:"t_ns"`
	Kind    string  `json:"kind"`
	Replica int32   `json:"replica"`
	Request int32   `json:"request"`
	Session int32   `json:"session"`
	A       int64   `json:"a"`
	B       int64   `json:"b"`
	C       int64   `json:"c"`
	F       float64 `json:"f"`
	Label   string  `json:"label"`
}

// ReadEventsJSONL parses an events.jsonl export back into events —
// the inverse of WriteJSONL, used by offline analyzers
// (cmd/tokenflow-trace). Unknown kinds and malformed lines fail with
// the offending line number.
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("obs: events.jsonl line %d: %w", line, err)
		}
		kind, ok := KindByName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: events.jsonl line %d: unknown kind %q", line, je.Kind)
		}
		out = append(out, Event{
			Seq: je.Seq, At: simclock.Time(je.TNs), Kind: kind,
			Replica: je.Replica, Request: je.Request, Session: je.Session,
			A: je.A, B: je.B, C: je.C, F: je.F, Label: je.Label,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events.jsonl: %w", err)
	}
	return out, nil
}

// WriteCSV writes every series as long-format CSV
// (series,time_s,value), one block per series in first-observation
// order.
func (g *Registry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("series,time_s,value\n")
	for _, s := range g.All() {
		for i := range s.Times {
			bw.WriteString(s.Name)
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(s.Times[i].Seconds(), 'g', -1, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(s.Values[i], 'g', -1, 64))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// clusterPid is the Chrome-trace process id for cluster-scoped events
// (arrivals, gateway, routing, scale decisions); replica-scoped events
// use pid = replica id.
const clusterPid = 1000000

// traceEvent is one entry of a Chrome trace_event document (the JSON
// Array Format that chrome://tracing and Perfetto open directly).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t interface{ Seconds() float64 }) float64 { return t.Seconds() * 1e6 }

// WriteChromeTrace renders the event stream as Chrome trace_event JSON:
// one track (process) per replica plus a cluster track, request
// lifecycles as queue/prefill/decode slices, routing and migrations as
// flow arrows, and sheds/evictions/scale decisions as instants. Open the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()

	var out []traceEvent
	meta := func(pid int, name string) {
		out = append(out, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	meta(clusterPid, "cluster")
	seen := map[int32]bool{}
	for _, e := range events {
		if e.Replica >= 0 && !seen[e.Replica] {
			seen[e.Replica] = true
			meta(int(e.Replica), fmt.Sprintf("replica %d", e.Replica))
		}
	}

	// Request lifecycle: first queue/admit/first-token/complete instants
	// per request, sliced on the serving replica's track.
	type life struct {
		replica                         int32
		queue, admit, first, complete   float64
		hasQ, hasA, hasF, hasC, started bool
	}
	lives := map[int32]*life{}
	lifeOf := func(req int32) *life {
		l, ok := lives[req]
		if !ok {
			l = &life{replica: -1}
			lives[req] = l
		}
		return l
	}
	var order []int32
	for _, e := range events {
		if e.Request < 0 {
			continue
		}
		l := lifeOf(e.Request)
		if !l.started {
			l.started = true
			order = append(order, e.Request)
		}
		ts := usec(e.At)
		switch e.Kind {
		case KindQueue:
			if !l.hasQ {
				l.queue, l.hasQ, l.replica = ts, true, e.Replica
			}
		case KindAdmit:
			if !l.hasA {
				l.admit, l.hasA = ts, true
			}
		case KindFirstToken:
			if !l.hasF {
				l.first, l.hasF = ts, true
			}
		case KindComplete:
			if !l.hasC {
				l.complete, l.hasC = ts, true
			}
		}
	}
	slice := func(name string, pid int, tid int32, ts, end float64) {
		out = append(out, traceEvent{
			Name: name, Ph: "X", Ts: ts, Dur: end - ts,
			Pid: pid, Tid: int(tid), Cat: "request",
		})
	}
	for _, req := range order {
		l := lives[req]
		if l.replica < 0 {
			continue
		}
		pid := int(l.replica)
		if l.hasQ && l.hasA {
			slice("queue", pid, req, l.queue, l.admit)
		}
		if l.hasA && l.hasF {
			slice("prefill", pid, req, l.admit, l.first)
		}
		if l.hasF && l.hasC {
			slice("decode", pid, req, l.first, l.complete)
		}
	}

	// Flow arrows: route decisions bind the cluster-track arrival to the
	// replica-track queue slice; accepted migrations arrow donor→target.
	for _, e := range events {
		ts := usec(e.At)
		switch e.Kind {
		case KindRouteDecision:
			l := lives[e.Request]
			if l == nil || !l.hasQ {
				continue
			}
			id := int(e.Request) + 1 // flow ids must be nonzero
			out = append(out,
				traceEvent{Name: "route", Ph: "s", Ts: ts, Pid: clusterPid,
					Tid: int(e.Request), Cat: "route", ID: id},
				traceEvent{Name: "route", Ph: "f", BP: "e", Ts: l.queue,
					Pid: int(l.replica), Tid: int(e.Request), Cat: "route", ID: id})
		case KindMigrateAccept:
			id := int(e.Seq) + 1<<26
			out = append(out,
				traceEvent{Name: "migrate", Ph: "s", Ts: ts, Pid: int(e.Replica),
					Tid: int(e.Session), Cat: "migrate", ID: id},
				traceEvent{Name: "migrate", Ph: "f", BP: "e", Ts: ts + 1, Pid: int(e.A),
					Tid: int(e.Session), Cat: "migrate", ID: id})
		}
	}

	// Instants: events worth a marker but not a span.
	for _, e := range events {
		var name string
		pid := int(e.Replica)
		switch e.Kind {
		case KindGatewayShed:
			name, pid = "shed", clusterPid
		case KindScaleDecision:
			name, pid = e.Label, clusterPid
		case KindMigrateDecline:
			name = "migrate-declined"
		case KindKVEvict:
			name = "kv-evict"
		default:
			continue
		}
		out = append(out, traceEvent{
			Name: name, Ph: "i", S: "g", Ts: usec(e.At),
			Pid: pid, Tid: int(e.Session),
		})
	}

	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{TraceEvents: out}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFiles writes every captured layer into dir: events.jsonl,
// trace.json, series.csv and profile.json (only the layers that were
// on). It creates dir if needed and returns the paths written.
func (c *Capture) WriteFiles(dir, scenario string, wall time.Duration) ([]string, error) {
	if c == nil {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(name string, fn func(io.Writer) error) error {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, p)
		return nil
	}
	if c.Events != nil {
		if err := write("events.jsonl", c.Events.WriteJSONL); err != nil {
			return paths, err
		}
		if err := write("trace.json", c.Events.WriteChromeTrace); err != nil {
			return paths, err
		}
	}
	if c.Series != nil {
		if err := write("series.csv", c.Series.WriteCSV); err != nil {
			return paths, err
		}
	}
	if c.Profile != nil {
		rep := c.Profile.Report(scenario, c.Events.Len(), wall)
		if err := write("profile.json", rep.WriteJSON); err != nil {
			return paths, err
		}
	}
	return paths, nil
}
