package cluster_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
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
