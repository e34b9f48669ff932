package fabric

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/simclock"
)

func mustTopo(t *testing.T, replicas int, spec Spec) *Topology {
	t.Helper()
	topo, err := NewTopology(replicas, spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// specCase is one Normalize input and the spec it must resolve to.
type specCase struct {
	name     string
	in, want Spec
}

// checkNormalize runs Normalize on each case, compares the result with
// want, and checks that normalizing twice changes nothing.
func checkNormalize(t *testing.T, cases []specCase) {
	t.Helper()
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("%s: Normalize() = %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: Normalize() = %+v, want %+v", c.name, got, c.want)
		}
		if again, err := got.Normalize(); err != nil || again != got {
			t.Errorf("%s: normalizing twice = %+v, %v; want %+v", c.name, again, err, got)
		}
	}
}

// TestSpecNormalizeDefaults: a zero kind is the full mesh and a zero link
// bandwidth is 25 GB/s; a zero switch stays non-blocking.
func TestSpecNormalizeDefaults(t *testing.T) {
	checkNormalize(t, []specCase{
		{"zero", Spec{}, Spec{Kind: FullMesh, LinkGBps: 25}},
		{"shared-nic-default-link", Spec{Kind: SharedNIC}, Spec{Kind: SharedNIC, LinkGBps: 25}},
		{"link-without-kind", Spec{LinkGBps: 2}, Spec{Kind: FullMesh, LinkGBps: 2}},
	})
}

// TestSpecNormalize: set fields stay, a switch under the full mesh is kept
// (and ignored by the layout), and normalizing twice changes nothing.
func TestSpecNormalize(t *testing.T) {
	nic := Spec{Kind: SharedNIC, LinkGBps: 2, SwitchGBps: 5}
	mesh := Spec{Kind: FullMesh, LinkGBps: 10, SwitchGBps: 5}
	checkNormalize(t, []specCase{
		{"shared-nic-set-fields-stay", nic, nic},
		{"full-mesh-set-fields-stay", mesh, mesh},
	})
}

// TestSpecValidate: every bad layout is an error that names what is
// wrong, from Normalize and from NewTopology alike.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		in   Spec
		want string // substring of the error
	}{
		{"unknown-kind", Spec{Kind: "ring", LinkGBps: 1}, `"ring"`},
		{"negative-link", Spec{Kind: FullMesh, LinkGBps: -1}, "link bandwidth -1"},
		{"negative-switch", Spec{Kind: SharedNIC, LinkGBps: 1, SwitchGBps: -2}, "switch bandwidth -2"},
		{"NaN-link", Spec{Kind: SharedNIC, LinkGBps: math.NaN()}, "link bandwidth NaN"},
		{"NaN-switch", Spec{Kind: SharedNIC, LinkGBps: 1, SwitchGBps: math.NaN()}, "switch bandwidth NaN"},
	}
	for _, c := range cases {
		if _, err := c.in.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize() = %v, want an error containing %q", c.name, err, c.want)
		}
		if _, err := NewTopology(2, c.in); err == nil {
			t.Errorf("%s: NewTopology accepted the spec", c.name)
		}
	}
	if _, err := NewTopology(0, Spec{}); err == nil {
		t.Error("zero replicas should fail")
	}
}

// TestSingleLinkPathMatchesEnqueue pins the refactor's equivalence anchor:
// booking a single-link path through the scheduler produces byte-identical
// times and counters to calling gpu.Link.Enqueue directly.
func TestSingleLinkPathMatchesEnqueue(t *testing.T) {
	raw := gpu.NewLink("raw", 1e9)
	topo := mustTopo(t, 2, Spec{Kind: FullMesh, LinkGBps: 1})
	s := NewScheduler(topo)

	sizes := []int64{1 << 20, 3 << 20, 123, 7 << 20}
	var now simclock.Time
	for i, n := range sizes {
		rs, rd := raw.Enqueue(now, n)
		fs, fd := s.BookBetween(ClassMigrate, 0, 1, now, n)
		if rs != fs || rd != fd {
			t.Fatalf("transfer %d: fabric (%v,%v) != raw (%v,%v)", i, fs, fd, rs, rd)
		}
		now = now.Add(time.Duration(i) * time.Millisecond)
	}
	rb, rbusy, rn := raw.Stats()
	link := topo.Path(0, 1)[0]
	fb, fbusy, fn := link.Stats()
	if rb != fb || rbusy != fbusy || rn != fn {
		t.Errorf("counters diverge: raw (%d,%v,%d) fabric (%d,%v,%d)", rb, rbusy, rn, fb, fbusy, fn)
	}
}

// TestSharedNICSerializes: two simultaneous migrations out of one replica
// must serialize on its egress NIC — done times strictly ordered, the
// second starting when the first drains — while a full mesh runs them in
// parallel.
func TestSharedNICSerializes(t *testing.T) {
	shared := NewScheduler(mustTopo(t, 3, Spec{Kind: SharedNIC, LinkGBps: 1}))
	s1, d1 := shared.BookBetween(ClassMigrate, 0, 1, 0, 1<<30)
	s2, d2 := shared.BookBetween(ClassMigrate, 0, 2, 0, 1<<30)
	if s1 != 0 {
		t.Errorf("first transfer start = %v, want 0", s1)
	}
	if s2 != d1 {
		t.Errorf("second transfer start = %v, want first done %v", s2, d1)
	}
	if d2 <= d1 {
		t.Errorf("done times not strictly ordered: %v <= %v", d2, d1)
	}

	mesh := NewScheduler(mustTopo(t, 3, Spec{Kind: FullMesh, LinkGBps: 1}))
	_, m1 := mesh.BookBetween(ClassMigrate, 0, 1, 0, 1<<30)
	ms2, m2 := mesh.BookBetween(ClassMigrate, 0, 2, 0, 1<<30)
	if ms2 != 0 || m1 != m2 {
		t.Errorf("full mesh should run disjoint pairs in parallel: start %v, done %v vs %v", ms2, m1, m2)
	}
}

// TestSharedNICIngressContention: transfers from different donors into one
// receiver serialize on its ingress NIC.
func TestSharedNICIngressContention(t *testing.T) {
	s := NewScheduler(mustTopo(t, 3, Spec{Kind: SharedNIC, LinkGBps: 1}))
	_, d1 := s.BookBetween(ClassPrewarm, 0, 2, 0, 1<<30)
	s2, _ := s.BookBetween(ClassDrain, 1, 2, 0, 1<<30)
	if s2 != d1 {
		t.Errorf("ingress-sharing transfer starts at %v, want %v", s2, d1)
	}
}

// TestBlockingSwitchSerializesAll: with a finite switch stage, even
// transfers between disjoint replica pairs serialize through it.
func TestBlockingSwitchSerializesAll(t *testing.T) {
	s := NewScheduler(mustTopo(t, 4, Spec{Kind: SharedNIC, LinkGBps: 10, SwitchGBps: 1}))
	// The switch is the bottleneck (1 GB/s vs 10 GB/s NICs).
	_, d1 := s.BookBetween(ClassMigrate, 0, 1, 0, 1<<30)
	s2, _ := s.BookBetween(ClassMigrate, 2, 3, 0, 1<<30)
	if s2 != d1 {
		t.Errorf("disjoint pairs should serialize on the switch: start %v, want %v", s2, d1)
	}
	if want := gpu.NewLink("ref", 1e9).TransferTime(1 << 30); d1 != simclock.Time(want) {
		t.Errorf("bottleneck wire time %v, want switch-rate %v", d1, want)
	}
}

// TestETAMatchesBooking: the unbooked estimate equals what a booking would
// experience, and reflects path backlog.
func TestETAMatchesBooking(t *testing.T) {
	s := NewScheduler(mustTopo(t, 3, Spec{Kind: SharedNIC, LinkGBps: 1}))
	if eta := s.ETABetween(0, 1, 0, 1<<30); eta != gpu.NewLink("ref", 1e9).TransferTime(1<<30) {
		t.Errorf("idle ETA = %v", eta)
	}
	_, d1 := s.BookBetween(ClassMigrate, 0, 1, 0, 1<<30)
	eta := s.ETABetween(0, 2, 0, 1<<20)
	want := simclock.Time(0).Add(gpu.NewLink("ref", 1e9).TransferTime(1 << 20))
	if eta != d1.Sub(0)+want.Sub(0) {
		t.Errorf("backlogged ETA = %v, want queueing %v + wire %v", eta, d1, want)
	}
	// Estimating must not book.
	s2, _ := s.BookBetween(ClassMigrate, 0, 2, 0, 1<<20)
	if s2 != d1 {
		t.Errorf("estimate perturbed the links: start %v, want %v", s2, d1)
	}
}

// TestClassAccounting: bookings tally bytes, transfers, and bottleneck
// busy time under their class only.
func TestClassAccounting(t *testing.T) {
	s := NewScheduler(mustTopo(t, 2, Spec{Kind: FullMesh, LinkGBps: 1}))
	ep := s.Endpoint(0)
	ep.AttachHost(2e9)
	ep.EnqueueD2H(ClassSync, 0, 1000)
	ep.EnqueueD2H(ClassEvict, 0, 500)
	ep.EnqueueH2D(ClassReload, 0, 250)
	s.BookBetween(ClassMigrate, 0, 1, 0, 2000)

	got := map[Class]ClassStats{}
	for _, cs := range s.ClassStats() {
		got[cs.Class] = cs
	}
	if cs := got[ClassSync]; cs.Transfers != 1 || cs.Bytes != 1000 {
		t.Errorf("sync stats %+v", cs)
	}
	if cs := got[ClassEvict]; cs.Bytes != 500 {
		t.Errorf("evict stats %+v", cs)
	}
	if cs := got[ClassReload]; cs.Bytes != 250 {
		t.Errorf("reload stats %+v", cs)
	}
	if cs := got[ClassMigrate]; cs.Bytes != 2000 || cs.Busy <= 0 {
		t.Errorf("migrate stats %+v", cs)
	}
	if cs := got[ClassLoad]; cs.Transfers != 0 {
		t.Errorf("untouched class has traffic: %+v", cs)
	}
	for _, c := range Classes() {
		if c.String() == "" {
			t.Errorf("class %d has no name", int(c))
		}
	}
}

// TestEachLinkOrder: EachLink visits every link that exists, in Links
// order — host pairs once attached, then under the full mesh each pair
// link from its pair's first Path on, in first-use order, then the NICs
// and the switch. Looking a pair up again adds nothing.
func TestEachLinkOrder(t *testing.T) {
	nic := Spec{Kind: SharedNIC, LinkGBps: 1, SwitchGBps: 5}
	mesh := Spec{Kind: FullMesh, LinkGBps: 1}
	host := []string{"host-d2h-0", "host-h2d-0"}
	nics := append(append([]string{}, host...),
		"nic-out-0", "nic-in-0", "nic-out-1", "nic-in-1", "nic-out-2", "nic-in-2", "switch")
	cases := []struct {
		name  string
		spec  Spec
		paths [][2]int
		want  []string
	}{
		{"shared-nic", nic, nil, nics},
		{"shared-nic-paths-add-nothing", nic, [][2]int{{2, 0}, {0, 1}}, nics},
		{"full-mesh-fresh", mesh, nil, host},
		{"full-mesh-first-use-order", mesh, [][2]int{{2, 0}, {0, 1}},
			append(append([]string{}, host...), "ic-2-0", "ic-0-1")},
		{"full-mesh-repeats-add-nothing", mesh, [][2]int{{2, 0}, {0, 1}, {2, 0}, {0, 1}, {2, 0}},
			append(append([]string{}, host...), "ic-2-0", "ic-0-1")},
	}
	for _, c := range cases {
		s := NewScheduler(mustTopo(t, 3, c.spec))
		s.Endpoint(0).AttachHost(1e9)
		for _, p := range c.paths {
			s.Topology().Path(p[0], p[1])
		}
		var got []string
		s.Topology().EachLink(func(l *gpu.Link) { got = append(got, l.Name()) })
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: links %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAttachHostTwicePanics(t *testing.T) {
	topo := mustTopo(t, 1, Spec{})
	topo.AttachHost(0, 1e9)
	defer func() {
		if recover() == nil {
			t.Error("double attach should panic")
		}
	}()
	topo.AttachHost(0, 1e9)
}

// TestBookingAllocationBound pins the transfer hot path: steady-state
// bookings on a built topology — interconnect paths and host-link
// enqueues alike — must not allocate. The per-replica class-stat rows are
// laid out at construction, so a booking only advances link cursors and
// bumps counters; under the full mesh, once every pair the loop books on
// has been used, its link and path are cached.
func TestBookingAllocationBound(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: SharedNIC, LinkGBps: 2, SwitchGBps: 4},
		{Kind: FullMesh, LinkGBps: 2},
	} {
		topo := mustTopo(t, 4, spec)
		s := NewScheduler(topo)
		ep := s.Endpoint(1)
		ep.AttachHost(2e9)
		for i := 0; i < 4; i++ {
			topo.Path(i, (i+1)%4)
		}
		var (
			now simclock.Time
			i   int
		)
		if avg := testing.AllocsPerRun(1000, func() {
			s.BookBetween(ClassMigrate, i%4, (i+1)%4, now, 1<<20)
			ep.EnqueueD2H(ClassSync, now, 1<<16)
			ep.EnqueueH2D(ClassReload, now, 1<<16)
			now += simclock.FromSeconds(0.001)
			i++
		}); avg > 0 {
			t.Errorf("%s: steady-state booking allocates %.1f objects per round, want 0", spec.Kind, avg)
		}
	}
}

// TestNewTopologyAllocationBound: building a topology lays out no pair
// links. The full mesh is a constant number of allocations at any replica
// count; the shared NIC layout is O(N) — two links and two names per
// replica — plus a constant.
func TestNewTopologyAllocationBound(t *testing.T) {
	const replicas = 500
	cases := []struct {
		spec Spec
		max  float64
	}{
		{Spec{}, 8},
		{Spec{Kind: SharedNIC}, 4*replicas + 8},
		{Spec{Kind: SharedNIC, SwitchGBps: 10}, 4*replicas + 8},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(5, func() {
			if _, err := NewTopology(replicas, c.spec); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("NewTopology(%d, %+v) allocates %v objects, want at most %v", replicas, c.spec, got, c.max)
		}
	}
}

// BenchmarkBookBetween measures one cross-replica interconnect booking on
// a contended shared-NIC topology.
func BenchmarkBookBetween(b *testing.B) {
	topo, err := NewTopology(8, Spec{Kind: SharedNIC, LinkGBps: 2, SwitchGBps: 4})
	if err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(topo)
	var now simclock.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BookBetween(ClassMigrate, i%8, (i+3)%8, now, 1<<20)
		now += simclock.FromSeconds(0.0005)
	}
}
