package fabric

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

// FuzzTopologyPaths holds the lazily resolved Topology to the eager
// reference layout (refTopology). The input decodes into a layout kind, a
// replica count, link and switch bandwidths, a host-attachment mask, and
// a sequence of Path / BookBetween / ETABetween / Links calls; each call
// must agree with the reference on link names, bandwidths, path
// composition, booked start and done times, estimates, and every link's
// BusyUntil and counters. Links must equal the reference's list
// restricted to the pairs resolved so far.
//
// Run it with
//
//	go test -run=NONE -fuzz=FuzzTopologyPaths -fuzztime=10s ./internal/fabric/
func FuzzTopologyPaths(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 0x01, 0, 2, 0, 1, 0, 1, 3, 0, 0})
	f.Add([]byte{1, 4, 3, 2, 0xff, 1, 0, 0, 1, 1, 5, 2, 3, 1, 3, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		spec, err := Spec{
			Kind:       Kinds()[data[0]%2],
			LinkGBps:   float64(1+data[2]%16) / 4,
			SwitchGBps: float64(data[3]%4) / 2,
		}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(data[1]%8)
		topo, err := NewTopology(n, spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTopology(n, spec)
		for i := 0; i < n; i++ {
			if data[4]>>i&1 == 1 {
				bw := float64(1+i) * 1e9
				topo.AttachHost(i, bw)
				ref.attachHost(i, bw)
			}
		}
		lazy := NewScheduler(topo)
		// The reference books its own paths explicitly; the scheduler's
		// topology only sizes the class ledger.
		eager := NewScheduler(mustTopo(t, n, spec))

		var (
			now      simclock.Time
			resolved [][2]int
			seen     = map[[2]int]bool{}
		)
		checkLinks := func() {
			t.Helper()
			sameLinks(t, "Links", topo.Links(), ref.linksResolved(resolved))
		}
		for ops := data[5:]; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%4, int(ops[1]), int(ops[2])
			now = now.Add(time.Duration(a%16) * time.Millisecond)
			if op == 3 || n < 2 {
				checkLinks()
				continue
			}
			from := a % n
			to := (from + 1 + b%(n-1)) % n
			bytes := int64(b+1) << 14
			pair := [2]int{from, to}
			if !seen[pair] {
				seen[pair] = true
				if spec.Kind == FullMesh {
					resolved = append(resolved, pair)
				}
			}
			want := ref.paths[from][to]
			switch op {
			case 0:
				got := topo.Path(from, to)
				sameLinks(t, "Path", got, want)
				if again := topo.Path(from, to); &again[0] != &got[0] {
					t.Fatalf("Path(%d,%d) re-resolved a cached pair", from, to)
				}
			case 1:
				gs, gd := lazy.BookBetween(ClassMigrate, from, to, now, bytes)
				ws, wd := eager.Book(ClassMigrate, want, now, bytes)
				if gs != ws || gd != wd {
					t.Fatalf("BookBetween(%d,%d,%v,%d) = (%v,%v), reference (%v,%v)",
						from, to, now, bytes, gs, gd, ws, wd)
				}
			case 2:
				got := lazy.ETABetween(from, to, now, bytes)
				start, bottleneck := pathPlan(want, now)
				if w := start.Sub(now) + bottleneck.TransferTime(bytes); got != w {
					t.Fatalf("ETABetween(%d,%d,%v,%d) = %v, reference %v", from, to, now, bytes, got, w)
				}
			}
			sameLinks(t, "Path after op", topo.Path(from, to), want)
		}
		checkLinks()
		for i, gs := range lazy.ClassStats() {
			if ws := eager.ClassStats()[i]; gs != ws {
				t.Fatalf("class stats %+v, reference %+v", gs, ws)
			}
		}
	})
}

// sameLinks fails unless got and want are equally long and agree link by
// link on name, bandwidth, backlog and cumulative counters.
func sameLinks(t *testing.T, what string, got, want []*gpu.Link) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d links %v, reference %d %v", what, len(got), linkNames(got), len(want), linkNames(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gb, gbusy, gn := g.Stats()
		wb, wbusy, wn := w.Stats()
		if g.Name() != w.Name() || g.BytesPerSec() != w.BytesPerSec() || g.BusyUntil() != w.BusyUntil() ||
			gb != wb || gbusy != wbusy || gn != wn {
			t.Fatalf("%s: link %d is %s@%v busy until %v (%d B, %v, %d), reference %s@%v busy until %v (%d B, %v, %d)",
				what, i, g.Name(), g.BytesPerSec(), g.BusyUntil(), gb, gbusy, gn,
				w.Name(), w.BytesPerSec(), w.BusyUntil(), wb, wbusy, wn)
		}
	}
}

func linkNames(links []*gpu.Link) []string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.Name()
	}
	return out
}
