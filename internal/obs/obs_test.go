package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/simclock"
)

// TestEmitOrdering: same-instant events sort by the total (At, Replica,
// emission sequence) order and Events() renumbers Seq to the canonical
// position — the deterministic tie-break that keeps exports byte-stable
// whatever order the subsystems emitted in.
func TestEmitOrdering(t *testing.T) {
	r := NewRecorder()
	at := simclock.FromSeconds(1)
	r.Emit(at, KindKVEvict, 2, -1, 7, 0, 0, 0, 0, "")
	r.Emit(at, KindKVPin, 0, -1, 7, 0, 0, 0, 0, "")
	r.Emit(at, KindKVPin, 2, -1, 8, 0, 0, 0, 0, "")
	r.Emit(at.Add(1), KindArrival, -1, 1, 0, 0, 0, 0, 0, "")

	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	wantReplica := []int32{0, 2, 2, -1}
	wantKind := []Kind{KindKVPin, KindKVEvict, KindKVPin, KindArrival}
	for i := range ev {
		if ev[i].Replica != wantReplica[i] || ev[i].Kind != wantKind[i] {
			t.Errorf("event %d: replica %d kind %v, want replica %d kind %v",
				i, ev[i].Replica, ev[i].Kind, wantReplica[i], wantKind[i])
		}
		if ev[i].Seq != uint64(i) {
			t.Errorf("event %d: canonical seq %d, want %d", i, ev[i].Seq, i)
		}
	}
	if r.CountKind(KindKVPin) != 2 {
		t.Errorf("CountKind(KindKVPin) = %d, want 2", r.CountKind(KindKVPin))
	}
}

// TestEventSize pins the event's footprint: every retained event is
// copied into the recorder's chunks and again by Events, so a field added
// to Event costs that much per event in a run that keeps its stream.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 80 {
		t.Errorf("Event is %d bytes, want 80", got)
	}
}

// TestNilSinkIsFree: every method of a nil recorder, registry, and
// profiler is a no-op — the obs-off fast path.
func TestNilSinkIsFree(t *testing.T) {
	var r *Recorder
	if r.On() {
		t.Error("nil recorder reports On")
	}
	r.Emit(0, KindArrival, 0, 0, 0, 0, 0, 0, 0, "")
	if r.Len() != 0 || r.Events() != nil || r.CountKind(KindArrival) != 0 {
		t.Error("nil recorder retained state")
	}

	var g *Registry
	if g.On() {
		t.Error("nil registry reports On")
	}
	g.Observe("x", 0, 1)
	if g.All() != nil || g.Get("x") != nil {
		t.Error("nil registry retained state")
	}

	var p *Profiler
	p.End(PhaseEngineStep, p.Begin())
	if p.Stat(PhaseEngineStep).Calls != 0 {
		t.Error("nil profiler retained state")
	}

	var c *Capture
	if paths, err := c.WriteFiles(t.TempDir(), "x", 0); err != nil || paths != nil {
		t.Errorf("nil capture WriteFiles = %v, %v", paths, err)
	}
}

// TestRegistryObserve: series keep insertion order and per-series points.
func TestRegistryObserve(t *testing.T) {
	g := NewRegistry()
	g.Observe("b", simclock.FromSeconds(1), 10)
	g.Observe("a", simclock.FromSeconds(1), 20)
	g.Observe("b", simclock.FromSeconds(2), 30)
	all := g.All()
	if len(all) != 2 || all[0].Name != "b" || all[1].Name != "a" {
		t.Fatalf("series order wrong: %+v", all)
	}
	if s := g.Get("b"); len(s.Values) != 2 || s.Values[1] != 30 {
		t.Fatalf("series b points wrong: %+v", s)
	}
}

// TestProfilerRoundTrip: phases accumulate and the report survives a
// JSON round trip.
func TestProfilerRoundTrip(t *testing.T) {
	p := NewProfiler()
	p.End(PhaseControlTick, p.Begin())
	if p.Stat(PhaseControlTick).Calls != 1 {
		t.Fatal("phase not charged")
	}
	rep := p.Report("test", 5, 1000)
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != "test" || back.Events != 5 || back.Phases["control_tick"].Calls != 1 {
		t.Fatalf("report round-trip lost fields: %+v", back)
	}
}

// TestShardDrainPhase: the shard-drain phase reports under its stable
// name, merges across profilers like every phase, and on a nil profiler
// neither reads the clock nor allocates.
func TestShardDrainPhase(t *testing.T) {
	if PhaseShardDrain.String() != "shard_drain" {
		t.Fatalf("phase name %q", PhaseShardDrain)
	}
	a, b := NewProfiler(), NewProfiler()
	a.End(PhaseShardDrain, a.Begin())
	a.End(PhaseShardDrain, a.Begin())
	b.End(PhaseShardDrain, b.Begin())
	m := MergeProfilers(a, nil, b)
	if m.Stat(PhaseShardDrain).Calls != 3 {
		t.Fatalf("merged shard-drain phase: %+v", m.Stat(PhaseShardDrain))
	}
	rep := m.Report("drain", 0, 0)
	if rep.Phases["shard_drain"].Calls != 3 {
		t.Fatalf("report lost the shard-drain phase: %+v", rep.Phases)
	}

	var off *Profiler
	if !off.Begin().IsZero() {
		t.Error("nil profiler read the clock")
	}
	if n := testing.AllocsPerRun(100, func() {
		off.End(PhaseShardDrain, off.Begin())
	}); n != 0 {
		t.Errorf("nil profiler allocates %.1f per drain", n)
	}
	if off.Stat(PhaseShardDrain).Calls != 0 {
		t.Error("nil profiler retained the shard-drain phase")
	}
}

// TestEmitAllocBound: the recording path amortizes to far below one
// allocation per event (one chunk per eventChunk events).
func TestEmitAllocBound(t *testing.T) {
	r := NewRecorder()
	i := 0
	avg := testing.AllocsPerRun(4*eventChunk, func() {
		r.Emit(simclock.Time(i), KindDecodeProgress, 1, 2, 3, 4, 5, 6, 0, "")
		i++
	})
	if avg > 0.01 {
		t.Errorf("Emit allocates %.4f allocs/op, want amortized ~1/%d", avg, eventChunk)
	}
}

// BenchmarkEventEmit guards the enabled hot path: pooled events, no
// per-event heap escape.
func BenchmarkEventEmit(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(simclock.Time(i), KindDecodeProgress, 1, int(uint(i)%64), 3, int64(i), 5, 6, 0, "")
	}
}

// BenchmarkEventEmitDisabled measures the obs-off path: a nil recorder.
func BenchmarkEventEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(simclock.Time(i), KindDecodeProgress, 1, 2, 3, 4, 5, 6, 0, "")
	}
}
