package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// loud wraps a scheduler and drops its quiet horizon
// (sched.Decision.QuietUntil), so the engine consults it at every
// iteration boundary: the reference the engine's skipped decisions are
// held to.
type loud struct{ sched.Scheduler }

func (l loud) Decide(v *sched.View) sched.Decision {
	d := l.Scheduler.Decide(v)
	d.QuietUntil = 0
	return d
}

// loudWaker is loud over a quantum-gated scheduler: the engine selects
// its idle wakeup by type assertion, so the wrapper keeps sched.Waker.
type loudWaker struct {
	loud
	sched.Waker
}

func loudly(system func() (sched.Scheduler, engine.KVPolicy, error)) func() (sched.Scheduler, engine.KVPolicy, error) {
	return func() (sched.Scheduler, engine.KVPolicy, error) {
		s, kv, err := system()
		if err != nil {
			return nil, kv, err
		}
		if w, ok := s.(sched.Waker); ok {
			return loudWaker{loud{s}, w}, kv, nil
		}
		return loud{s}, kv, nil
	}
}

// quietRun is one cluster run with every obs layer on; the exports are
// taken out of the Result so the rest compares with reflect.DeepEqual.
type quietRun struct {
	res            *cluster.Result
	events, series []byte
	attribution    any
}

func runWithObs(t *testing.T, cfg cluster.Config, build cluster.BuildEngine, w trace.Workload) quietRun {
	t.Helper()
	return runPrepared(t, cfg, build, w, nil)
}

// runPrepared is runWithObs with prep, when set, applied to the built
// cluster before it runs.
func runPrepared(t *testing.T, cfg cluster.Config, build cluster.BuildEngine, w trace.Workload, prep func(*cluster.Cluster)) quietRun {
	t.Helper()
	cfg.SampleEvery = 250 * time.Millisecond
	cfg.Obs = obs.Options{Events: true, Series: true, Profile: true, Attribution: true}
	cl, err := cluster.New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(cl)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	var ev, se bytes.Buffer
	if err := res.Obs.Events.WriteJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.Series.WriteCSV(&se); err != nil {
		t.Fatal(err)
	}
	q := quietRun{res: res, events: ev.Bytes(), series: se.Bytes(), attribution: res.Attribution}
	// The profile holds wall-clock times; the rest of the capture is
	// compared through its exports.
	res.Obs, res.Attribution = nil, nil
	return q
}

func sameRuns(t *testing.T, quiet, ref quietRun) {
	t.Helper()
	if len(quiet.events) == 0 {
		t.Fatal("the run recorded no events")
	}
	if !bytes.Equal(quiet.events, ref.events) {
		t.Error("event JSONL differs from the reference run's")
	}
	if !bytes.Equal(quiet.series, ref.series) {
		t.Error("series CSV differs from the reference run's")
	}
	if !reflect.DeepEqual(quiet.attribution, ref.attribution) {
		t.Error("attribution report differs from the reference run's")
	}
	if !reflect.DeepEqual(quiet.res.Report, ref.res.Report) {
		t.Fatalf("reports differ:\n%+v\n%+v", quiet.res.Report, ref.res.Report)
	}
	if !reflect.DeepEqual(quiet.res, ref.res) {
		t.Fatal("results differ from the reference run's")
	}
}

// TestQuietHorizonExact holds the engine's skipped decisions to the
// reference that consults the scheduler at every iteration boundary (the
// loud wrapper): over the determinism grid and random scenarios —
// chaos, autoscaling, the gateway, one and two shards, every system —
// with every obs layer and attribution on, both give deep-equal Results
// and byte-identical event and series exports.
func TestQuietHorizonExact(t *testing.T) {
	w := sessionWorkload(t)
	quietGrid, loudGrid := determinismGrid(), determinismGridOf(loudly(tokenFlow))
	for i, row := range quietGrid {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards-%d", row.name, shards), func(t *testing.T) {
				run := func(mk func() (cluster.Config, cluster.BuildEngine)) quietRun {
					cfg, build := mk()
					cfg.Shards = shards
					return runWithObs(t, cfg, build, w)
				}
				sameRuns(t, run(row.make), run(loudGrid[i].make))
			})
		}
	}

	systems := engine.Systems()
	for seed := int64(0); seed < 16; seed++ {
		name := systems[seed%int64(len(systems))]
		shards := 1 + int(seed/4)%2
		t.Run(fmt.Sprintf("random-%d/%s/shards-%d", seed, name, shards), func(t *testing.T) {
			run := func(system func() (sched.Scheduler, engine.KVPolicy, error)) quietRun {
				sc := cluster.RandomScenario(rand.New(rand.NewSource(seed)))
				sc.Config.Shards = shards
				return runWithObs(t, sc.Config, cluster.Engines(rtx4090, system), sc.Workload)
			}
			hostCache := seed%3 == 0
			sameRuns(t, run(system(name, hostCache)), run(loudly(system(name, hostCache))))
		})
	}
}
