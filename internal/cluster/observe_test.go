package cluster_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// TestPairLinkSeriesFromFirstUse: under the full mesh a pair link exists
// only from its pair's first transfer on, so its two series must start
// there, be named after that link, and end on the link's own counters.
// Host-link series keep their names and one point per sampling tick from
// t=0, and every link series belongs to a link that exists.
func TestPairLinkSeriesFromFirstUse(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		// Round-robin spreads each session's turns, so every turn after
		// the first migrates its prefix across some pair.
		Replicas: 3, Policy: router.NewRoundRobin(), Migrate: true,
		SampleEvery: 250 * time.Millisecond,
		Obs:         obs.Options{Series: true},
	}, cluster.Engines(rtx4090, tokenFlow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(sessionWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migration: the run exercises no pair link")
	}
	reg := res.Obs.Series
	ticks := len(reg.Get("replica0/queue_depth").Times)
	links := cl.Fabric().Topology().Links()
	pairs := 0
	for _, l := range links {
		busy, backlog := reg.Get("link/"+l.Name()+"/busy_s"), reg.Get("link/"+l.Name()+"/backlog_s")
		if busy == nil || backlog == nil {
			t.Errorf("link %s has no series", l.Name())
			continue
		}
		_, total, _ := l.Stats()
		if last := busy.Values[len(busy.Values)-1]; last != total.Seconds() {
			t.Errorf("%s: last point %v, link busy %v", busy.Name, last, total.Seconds())
		}
		if strings.HasPrefix(l.Name(), "ic-") {
			pairs++
			if busy.Times[0] == 0 || len(busy.Times) >= ticks {
				t.Errorf("%s starts at %v with %d of %d points, want its first point after t=0",
					busy.Name, busy.Times[0], len(busy.Times), ticks)
			}
		} else if len(busy.Times) != ticks || busy.Times[0] != 0 {
			t.Errorf("%s has %d points from %v, want one per tick (%d) from 0",
				busy.Name, len(busy.Times), busy.Times[0], ticks)
		}
	}
	if pairs == 0 {
		t.Fatal("migrations ran but no pair link exists")
	}
	var linkSeries int
	for _, s := range reg.All() {
		if strings.HasPrefix(s.Name, "link/") {
			linkSeries++
		}
	}
	if linkSeries != 2*len(links) {
		t.Errorf("%d link series for %d links, want two per link", linkSeries, len(links))
	}
}

// TestControlSeriesPerTick: the registry's control series are the run's
// only per-tick record of the autoscaler. On a scale-to-zero run asking
// for two shards (it executes on one: the run is routed), gateway/depth and every autoscale/<signal> series hold exactly one
// point per control tick at the tick instants, every scale decision lands
// on a recorded tick, and the gateway depth matches the gateway signal the
// policy read. A static cluster records none of them.
func TestControlSeriesPerTick(t *testing.T) {
	var w trace.Workload
	w.Name = "two-bursts"
	for _, start := range []float64{0, 30} {
		for i := 0; i < 4; i++ {
			w.Items = append(w.Items, trace.Item{
				Arrival:   simclock.FromSeconds(start + float64(i)),
				PromptLen: 256, OutputLen: 32, Rate: 20,
			})
		}
	}
	run := func(as *cluster.AutoscaleConfig) *cluster.Result {
		t.Helper()
		cl, err := cluster.New(cluster.Config{
			Replicas: 3, Policy: router.NewLeastQueue(), Shards: 2,
			SampleEvery: time.Second,
			Autoscale:   as,
			Obs:         obs.Options{Series: true},
		}, cluster.Engines(rtx4090, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Finished != len(w.Items) {
			t.Fatalf("finished %d/%d", res.Report.Finished, len(w.Items))
		}
		return res
	}

	res := run(&cluster.AutoscaleConfig{
		Policy:      autoscale.NewSLOTarget(2 * time.Second),
		Max:         3,
		Warmup:      2 * time.Second,
		ScaleToZero: true,
	})
	reg := res.Obs.Series
	gw := reg.Get("gateway/depth")
	if gw == nil || len(gw.Times) == 0 {
		t.Fatal("scale-to-zero run recorded no gateway/depth series")
	}
	ticks := gw.Times
	for k, at := range ticks {
		if want := simclock.FromSeconds(float64(k)); at != want {
			t.Fatalf("gateway/depth point %d at %v, want the control tick at %v", k, at, want)
		}
	}
	for _, name := range autoscale.SignalNames {
		s := reg.Get("autoscale/" + name)
		if s == nil {
			t.Errorf("no autoscale/%s series", name)
			continue
		}
		if !slices.Equal(s.Times, ticks) {
			t.Errorf("autoscale/%s has %d points, gateway/depth %d, or their instants differ",
				name, len(s.Times), len(ticks))
		}
	}
	if sig := reg.Get("autoscale/gateway"); sig != nil && !slices.Equal(sig.Values, gw.Values) {
		t.Errorf("gateway/depth %v differs from autoscale/gateway %v", gw.Values, sig.Values)
	}
	decisions := 0
	for _, ev := range res.ScaleEvents {
		if ev.Kind != cluster.ScaleWarmup && ev.Kind != cluster.ScaleDrain {
			continue
		}
		decisions++
		if _, ok := slices.BinarySearch(ticks, ev.At); !ok {
			t.Errorf("%s of replica %d at %v falls on no recorded control tick", ev.Kind, ev.Replica, ev.At)
		}
	}
	if decisions == 0 {
		t.Error("the control loop took no scale decision")
	}
	if slices.Max(gw.Values) == 0 {
		t.Error("the cold burst never buffered in the gateway")
	}

	static := run(nil).Obs.Series
	for _, s := range static.All() {
		if s.Name == "gateway/depth" || strings.HasPrefix(s.Name, "autoscale/") {
			t.Errorf("static cluster recorded control series %s", s.Name)
		}
	}
}
