package engine_test

// Same-instant ties between a fused run's lazily applied completions and
// the events around them. Each test learns the decode boundaries of a
// TokenFlow engine serving three long streams from the unfused loop, puts
// an event exactly on one that the fused run applies lazily, and requires
// the fused engine to come out exactly as the unfused one: the completion
// at the boundary goes first when the unfused loop scheduled it first (the
// event was scheduled after the previous boundary), and second when the
// event was scheduled before. An event scheduled at the previous boundary
// itself is the tie the keys cannot split, and the fused run panics on it.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/kvcache"
	"repro/internal/obs"
	"repro/internal/request"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/simtest"
	"repro/internal/trace"
)

// tieBoundary is the index of the decode boundary the tie tests land on:
// well inside a quiet stretch of the three streams, so a fused run
// applies it lazily (each test checks that it does).
const tieBoundary = 120

// tieEngine is a standalone TokenFlow engine, fused or not, with its
// events recorded, serving three 400-token streams read at 20 tok/s that
// arrive at time zero.
func tieEngine(t *testing.T, fused bool) (*engine.Engine, *obs.Recorder) {
	t.Helper()
	e, err := engine.NewStandalone(tokenFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !fused {
		engine.SetUnfused(e)
	}
	rec := obs.NewRecorder()
	e.SetObs(rec, nil, 0)
	for i := 0; i < 3; i++ {
		r := request.New(i, 0, 256, 400, 20)
		r.Session = 1 + i
		e.Inject(r, 0)
	}
	return e, rec
}

// tieBoundaries are the decode completion instants of stream 0 in the
// unfused loop, and whether the fused run applies each lazily.
func tieBoundaries(t *testing.T) (at []simclock.Time, lazy []bool) {
	t.Helper()
	for _, fused := range []bool{false, true} {
		e, _ := tieEngine(t, fused)
		engine.SetDecodeProbe(e, func(r *request.Request, _ kvcache.Handle) {
			switch {
			case r.ID != 0:
			case !fused:
				at = append(at, e.Clock().Now())
			default:
				// The probe fires as each completion is applied: a lazy
				// one is still held by the open run.
				lazy = append(lazy, engine.LazyAt(e, at[len(lazy)]))
			}
		})
		for e.Clock().Step() {
		}
	}
	if len(at) <= tieBoundary+1 {
		t.Fatalf("stream 0 decoded at %d boundaries, want more than %d", len(at), tieBoundary+1)
	}
	return at, lazy
}

// tieRun runs one tie scenario, fused or not: setup schedules its events
// on the engine's clock, and the clock then runs dry. It returns the
// collected Result and the event JSONL.
func tieRun(t *testing.T, fused bool, setup func(e *engine.Engine, c *simclock.Clock)) (*engine.Result, []byte) {
	t.Helper()
	e, rec := tieEngine(t, fused)
	setup(e, e.Clock())
	for e.Clock().Step() {
	}
	res := e.Collect()
	var ev bytes.Buffer
	if err := rec.WriteJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	return res, ev.Bytes()
}

// sameTie requires the fused and unfused runs of setup to match.
func sameTie(t *testing.T, setup func(fused bool) func(e *engine.Engine, c *simclock.Clock)) {
	t.Helper()
	fres, fev := tieRun(t, true, setup(true))
	ures, uev := tieRun(t, false, setup(false))
	if !bytes.Equal(fev, uev) {
		t.Error("fused and unfused event logs differ")
	}
	if !reflect.DeepEqual(fres, ures) {
		t.Errorf("fused and unfused results differ:\n%+v\n%+v", fres.Report, ures.Report)
	}
}

// scheduleTie schedules act exactly at boundary k, from the instant how
// names: "before" schedules it at time zero, before the unfused loop
// scheduled completion k; "after" from an event between boundaries k-1
// and k, after it; "at" from an event at boundary k-1 itself. In the fused
// run act first checks that completion k is (lazy) or is not a lazily
// applied one.
func scheduleTie(t *testing.T, fused bool, e *engine.Engine, c *simclock.Clock, at []simclock.Time, k int, lazy bool, how string, act func(now simclock.Time)) {
	fn := func(now simclock.Time) {
		if fused && engine.LazyAt(e, now) != lazy {
			t.Errorf("the completion at %v: lazily applied %v, want %v", now, !lazy, lazy)
		}
		act(now)
	}
	switch how {
	case "before":
		c.At(at[k], fn)
	case "after":
		c.At(at[k-1]+(at[k]-at[k-1])/2, func(simclock.Time) { c.At(at[k], fn) })
	case "at":
		c.At(at[k-1], func(simclock.Time) { c.At(at[k], fn) })
	default:
		t.Fatalf("unknown scheduling %q", how)
	}
}

// TestTieArrivalAtVirtualBoundary: an arrival injected exactly at a
// lazily applied boundary, scheduled before and after the unfused loop
// scheduled that boundary's completion.
func TestTieArrivalAtVirtualBoundary(t *testing.T) {
	at, _ := tieBoundaries(t)
	for _, how := range []string{"before", "after"} {
		t.Run(how, func(t *testing.T) {
			sameTie(t, func(fused bool) func(*engine.Engine, *simclock.Clock) {
				return func(e *engine.Engine, c *simclock.Clock) {
					scheduleTie(t, fused, e, c, at, tieBoundary, true, how, func(now simclock.Time) {
						r := request.New(3, now, 64, 48, 20)
						r.Session = 4
						e.Inject(r, now)
					})
				}
			})
		})
	}
}

// TestTieTransferAtVirtualBoundary: a transfer completion — a migrated
// prefix installing as a pin and delivering the turn that rides it, as a
// cluster migration completes — exactly at a lazily applied boundary,
// scheduled before, after, and at the previous boundary. The last is the
// tie the keys cannot split: the fused run panics on it, by name.
func TestTieTransferAtVirtualBoundary(t *testing.T) {
	at, _ := tieBoundaries(t)
	install := func(e *engine.Engine) func(simclock.Time) {
		return func(now simclock.Time) {
			if !e.Mem().InstallPrefix(9, 512, now) {
				t.Error("the migrated prefix did not install")
			}
			r := request.New(3, now, 576, 48, 20)
			r.Session, r.Turn = 9, 2
			e.InjectCause(r, now, obs.QueueCauseMigrate)
		}
	}
	for _, how := range []string{"before", "after"} {
		t.Run(how, func(t *testing.T) {
			sameTie(t, func(fused bool) func(*engine.Engine, *simclock.Clock) {
				return func(e *engine.Engine, c *simclock.Clock) {
					scheduleTie(t, fused, e, c, at, tieBoundary, true, how, install(e))
				}
			})
		})
	}
	t.Run("at", func(t *testing.T) {
		tieRun(t, false, func(e *engine.Engine, c *simclock.Clock) {
			scheduleTie(t, false, e, c, at, tieBoundary, true, "at", install(e))
		})
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "unsplittable tie") {
				t.Errorf("the fused run ended with %q, want the unsplittable-tie panic", msg)
			}
		}()
		tieRun(t, true, func(e *engine.Engine, c *simclock.Clock) {
			scheduleTie(t, true, e, c, at, tieBoundary, true, "at", install(e))
		})
	})
}

// TestTieCrashAtVirtualBoundary: a crash exactly at a lazily applied
// boundary, scheduled before and after its completion.
func TestTieCrashAtVirtualBoundary(t *testing.T) {
	at, _ := tieBoundaries(t)
	for _, how := range []string{"before", "after"} {
		t.Run(how, func(t *testing.T) {
			sameTie(t, func(fused bool) func(*engine.Engine, *simclock.Clock) {
				return func(e *engine.Engine, c *simclock.Clock) {
					scheduleTie(t, fused, e, c, at, tieBoundary, true, how, func(now simclock.Time) {
						if orphans, _, _ := e.Crash(now); len(orphans) != 3 {
							t.Errorf("the crash orphaned %d requests, want 3", len(orphans))
						}
					})
				}
			})
		})
	}
}

// TestTieBrownoutAtVirtualBoundary: a brownout starting exactly at a
// lazily applied boundary, scheduled before and after its completion: the
// iteration launched there is slowed exactly when the unfused loop slows
// it.
func TestTieBrownoutAtVirtualBoundary(t *testing.T) {
	at, _ := tieBoundaries(t)
	for _, how := range []string{"before", "after"} {
		t.Run(how, func(t *testing.T) {
			sameTie(t, func(fused bool) func(*engine.Engine, *simclock.Clock) {
				return func(e *engine.Engine, c *simclock.Clock) {
					scheduleTie(t, fused, e, c, at, tieBoundary, true, how, func(now simclock.Time) {
						e.SetSlowdown(3)
						c.After(2*time.Second, func(simclock.Time) { e.SetSlowdown(1) })
					})
				}
			})
		})
	}
}

// TestTieAtRunEvent: an arrival exactly at the boundary whose completion
// is a fused run's one clock event, scheduled before and after the unfused
// loop scheduled it; scheduled at the previous boundary, the tie the keys
// cannot split, it panics by name in the fused run.
func TestTieAtRunEvent(t *testing.T) {
	at, lazy := tieBoundaries(t)
	j := -1
	for i := tieBoundary; i < len(lazy); i++ {
		if lazy[i-1] && !lazy[i] {
			j = i // the run holding boundary j-1 ends at j
			break
		}
	}
	if j < 0 {
		t.Fatal("no run ends after the tie boundary")
	}
	arrive := func(e *engine.Engine) func(simclock.Time) {
		return func(now simclock.Time) {
			r := request.New(3, now, 64, 48, 20)
			r.Session = 4
			e.Inject(r, now)
		}
	}
	for _, how := range []string{"before", "after"} {
		t.Run(how, func(t *testing.T) {
			sameTie(t, func(fused bool) func(*engine.Engine, *simclock.Clock) {
				return func(e *engine.Engine, c *simclock.Clock) {
					scheduleTie(t, fused, e, c, at, j, false, how, arrive(e))
				}
			})
		})
	}
	t.Run("at", func(t *testing.T) {
		tieRun(t, false, func(e *engine.Engine, c *simclock.Clock) {
			scheduleTie(t, false, e, c, at, j, false, "at", arrive(e))
		})
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "unsplittable tie") {
				t.Errorf("the fused run ended with %q, want the unsplittable-tie panic", msg)
			}
		}()
		tieRun(t, true, func(e *engine.Engine, c *simclock.Clock) {
			scheduleTie(t, true, e, c, at, j, false, "at", arrive(e))
		})
	})
}

// TestTieDeadlineBetweenVirtualBoundaries: a one-replica cluster whose
// MaxSimTime falls between two lazily applied boundaries, on the
// round-robin fast path and on the routed path with every obs layer on,
// ends exactly as the unfused loop does: the completion before the
// deadline applied, the one after it not, and the run timed out.
func TestTieDeadlineBetweenVirtualBoundaries(t *testing.T) {
	w := trace.Workload{Name: "ties", Items: []trace.Item{
		{Arrival: 0, PromptLen: 256, OutputLen: 400, Rate: 20, Session: 1, Turn: 1},
		{Arrival: 0, PromptLen: 256, OutputLen: 400, Rate: 20, Session: 2, Turn: 1},
	}}
	build := func(fused bool, probe func(e *engine.Engine, r *request.Request)) cluster.BuildEngine {
		return func(_ int, clock *simclock.Clock, ep *fabric.Endpoint) (*engine.Engine, error) {
			cfg := tokenFlowConfig()
			cfg.Clock, cfg.Fabric = clock, ep
			e, err := engine.New(cfg)
			if err != nil {
				return nil, err
			}
			if !fused {
				engine.SetUnfused(e)
			}
			if probe != nil {
				engine.SetDecodeProbe(e, func(r *request.Request, _ kvcache.Handle) { probe(e, r) })
			}
			return e, nil
		}
	}
	// The boundaries, and whether the fused run holds each lazily.
	var at []simclock.Time
	var lazy []bool
	collect := func(fused bool) func(e *engine.Engine, r *request.Request) {
		return func(e *engine.Engine, r *request.Request) {
			if r.ID != 0 {
				return
			}
			if !fused {
				at = append(at, e.Clock().Now())
			} else if len(lazy) < len(at) {
				// The fused probe fires as each completion is applied; the
				// next boundary is lazy when the run still holds it.
				lazy = append(lazy, engine.LazyAt(e, at[len(lazy)]))
			}
		}
	}
	cfg := cluster.Config{Replicas: 1, Policy: router.NewRoundRobin()}
	for _, fused := range []bool{false, true} {
		cl, err := cluster.New(cfg, build(fused, collect(fused)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	k := -1
	for i := tieBoundary; i+2 < len(lazy); i++ {
		if !lazy[i] && lazy[i+1] && lazy[i+2] {
			k = i + 1 // boundaries k and k+1 are both lazily applied
			break
		}
	}
	if k < 0 {
		t.Fatal("no two consecutive boundaries are lazily applied")
	}
	deadline := at[k] + (at[k+1]-at[k])/2
	for _, sampled := range []bool{false, true} {
		run := func(fused bool) simtest.Capture {
			c := cfg
			c.MaxSimTime = time.Duration(deadline)
			if sampled {
				return simtest.Run(t, c, build(fused, nil), w)
			}
			cl, err := cluster.New(c, build(fused, nil))
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			return simtest.Capture{Res: res, Events: []byte("none")}
		}
		fused, ref := run(true), run(false)
		simtest.SameOutputs(t, fused, ref)
		if !fused.Res.TimedOut {
			t.Errorf("sampled %v: the run did not time out at %v", sampled, deadline)
		}
	}
}
