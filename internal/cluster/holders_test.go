package cluster

// The pin-holder table must be exact: at every routing decision the
// holders the cluster hands the policy, and the donor the migration scan
// picks from them, must equal what a probe of every replica finds. These
// tests check that across the determinism grid's configuration space.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// holderCheck wraps a routing policy the way an outside wrapper would —
// forwarding Name, so the cluster treats it as the policy it wraps — and
// checks the pin-holder table at every routing decision.
type holderCheck struct {
	router.Policy
	t *testing.T
	c *Cluster
	// sessions lists the workload's sessions, whose table entries are
	// all checked at every decision.
	sessions []int
	// picks counts decisions whose request carried holders, multi those
	// with more than one holder; donors counts donor choices checked,
	// found the ones that named a donor.
	picks, multi, donors, found int
}

// wrapHolderCheck returns the checking wrapper, keeping the optional
// interfaces the wrapped policy implements (the cluster selects behaviour
// by type assertion, so dropping one would change the run).
func wrapHolderCheck(t *testing.T, p router.Policy) (router.Policy, *holderCheck) {
	h := &holderCheck{Policy: p, t: t}
	sc, isScorer := p.(router.Scorer)
	b, isBinder := p.(router.IndexBinder)
	switch {
	case isScorer && isBinder:
		return struct {
			*holderCheck
			router.Scorer
			router.IndexBinder
		}{h, sc, b}, h
	case isScorer:
		return struct {
			*holderCheck
			router.Scorer
		}{h, sc}, h
	case isBinder:
		return struct {
			*holderCheck
			router.IndexBinder
		}{h, b}, h
	}
	return h, h
}

// scanHolders is the reference: every replica whose probe reports a pinned
// prefix of the session, ascending.
func scanHolders(c *Cluster, session int) []int {
	var out []int
	for _, rep := range c.replicas {
		if rep.kv.PeekPrefix(session) > 0 {
			out = append(out, rep.id)
		}
	}
	return out
}

// scanDonor is the reference donor choice: the pool scan maybeMigrate ran
// before the table existed.
func scanDonor(c *Cluster, session int, target *replica, targetOwn, promptLen int) (donor, best int) {
	donor, best = -1, targetOwn
	for _, rep := range c.replicas {
		if rep == target {
			continue
		}
		if t := rep.kv.PeekPrefix(session); t > best && t < promptLen {
			donor, best = rep.id, t
		}
	}
	return donor, best
}

func (h *holderCheck) Pick(req router.Request, views []router.Replica) int {
	c := h.c
	tables := c.holders != nil
	if req.Session != 0 {
		want := scanHolders(c, req.Session)
		if c.holdersForPick {
			h.picks++
			if len(want) > 1 {
				h.multi++
			}
			if !slices.Equal(req.PrefixHolders, want) {
				h.t.Errorf("t=%v request %d session %d: PrefixHolders %v, probes say %v",
					c.clock.Now(), req.ID, req.Session, req.PrefixHolders, want)
			}
		} else if req.PrefixHolders != nil {
			h.t.Errorf("request %d: holders handed to %s, which does not read them",
				req.ID, h.Policy.Name())
		}
	} else if req.PrefixHolders != nil {
		h.t.Errorf("request %d: holders for the stateless session", req.ID)
	}
	pick := h.Policy.Pick(req, views)
	if c.cfg.Migrate && c.idx == nil && req.Session != 0 {
		// maybeMigrate runs next, on this state and with the holder list
		// the route took: its donor must be the pool scan's.
		target := views[pick].(*replica)
		own := target.kv.PeekPrefix(req.Session)
		gd, gb := c.pinDonor(req.Session, target, own, req.PromptLen, req.PrefixHolders)
		wd, wb := scanDonor(c, req.Session, target, own, req.PromptLen)
		h.donors++
		if gd >= 0 {
			h.found++
		}
		if gd != wd || gb != wb {
			h.t.Errorf("t=%v session %d → replica %d: donor %d (%d tokens), scan says %d (%d)",
				c.clock.Now(), req.Session, target.id, gd, gb, wd, wb)
		}
	}
	if tables {
		// Last: prefixHolders reuses the buffer req.PrefixHolders is in,
		// so refill it with the route's list, which maybeMigrate reads
		// after the pick.
		h.checkTable("t=" + c.clock.Now().String())
		if req.PrefixHolders != nil {
			c.prefixHolders(req.Session)
		}
	}
	return pick
}

// checkTable compares every session's table entry with the probes.
func (h *holderCheck) checkTable(when string) {
	for _, s := range h.sessions {
		got, want := h.c.prefixHolders(s), scanHolders(h.c, s)
		if !slices.Equal(got, want) && len(got)+len(want) > 0 {
			h.t.Errorf("%s session %d: table holds %v, probes say %v", when, s, got, want)
		}
	}
}

// runHolderCheck runs one configuration with the checking wrapper and
// verifies the table against the probes for every session at the end.
func runHolderCheck(t *testing.T, cfg Config, build BuildEngine, w trace.Workload) (*holderCheck, *Result) {
	t.Helper()
	pol, h := wrapHolderCheck(t, cfg.Policy)
	cfg.Policy = pol
	c, err := New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	for _, it := range w.Items {
		if it.Turn == 1 && it.Session != 0 {
			h.sessions = append(h.sessions, it.Session)
		}
	}
	res, err := c.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if c.holders != nil {
		h.checkTable("end of run:")
	}
	return h, res
}

// holderWorkload is a bursty session mix: flash crowds of session starts
// overload the holders, so affinity diverts and migrations run.
func holderWorkload() trace.Workload {
	return trace.Sessions("holders", trace.SessionConfig{
		Sessions:   40,
		Duration:   simclock.FromSeconds(40),
		SpikeEvery: simclock.FromSeconds(10),
		Rates:      trace.FixedRate(20),
		Seed:       3,
	})
}

// TestPinHolderTableExact runs the grid at one and two shards: static
// pools under both migration policies, autoscaling with drain and
// pre-warm, a chaos crash, link flaps across in-flight migrations on a
// slow NIC, an explicit prefix index beside the scanning policy, and a
// migrating least-queue pool whose table only the donor scan reads.
func TestPinHolderTableExact(t *testing.T) {
	w := holderWorkload()
	// flaps takes every pair of a 3-replica pool down for half of each
	// second over the first n seconds (the whole run): a pin transfer on
	// the slow NIC outlasts the up half, so flaps land mid-migration.
	flaps := func(n int) []chaos.Fault {
		var fs []chaos.Fault
		for a := 1; a <= n; a++ {
			for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
				fs = append(fs, chaos.Fault{Kind: chaos.LinkFlap, At: simclock.FromSeconds(float64(a)),
					From: p[0], To: p[1], Duration: 500 * time.Millisecond})
			}
		}
		return fs
	}
	rows := []struct {
		name  string
		cfg   func() Config
		check func(t *testing.T, h *holderCheck, res *Result)
	}{
		{"static-always", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			if res.Migrations == 0 {
				t.Error("no migration ran")
			}
		}},
		{"static-cost", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				MigrationPolicy: MigrateCost,
				Topology:        &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 1}}
		}, nil},
		{"autoscale-drain-prewarm", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				Autoscale: &AutoscaleConfig{Policy: autoscale.NewQueuePressure(), Max: 3,
					Warmup: 2 * time.Second, Prewarm: true}}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			var drains, warmups int
			for _, e := range res.ScaleEvents {
				switch e.Kind {
				case ScaleDrain:
					drains++
				case ScaleWarmup:
					warmups++
				}
			}
			if drains == 0 || warmups == 0 || res.Prewarms == 0 {
				t.Errorf("drains=%d warmups=%d prewarms=%d, want all positive",
					drains, warmups, res.Prewarms)
			}
		}},
		{"chaos-crash", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				Chaos: &chaos.Spec{Faults: []chaos.Fault{
					{Kind: chaos.Crash, At: simclock.FromSeconds(15), Replica: 1}}}}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			if res.Crashes != 1 {
				t.Errorf("crashes=%d, want 1", res.Crashes)
			}
		}},
		{"link-flap-mid-migration", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				Topology: &fabric.Spec{Kind: fabric.SharedNIC, LinkGBps: 0.05},
				Chaos:    &chaos.Spec{Faults: flaps(240)}}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			if res.MigrationsAborted == 0 {
				t.Errorf("no migration was on the wire when a link flapped (%d migrations)", res.Migrations)
			}
		}},
		{"explicit-index-scan-policy", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity(), Migrate: true,
				PrefixIndex: &prefixindex.Spec{PropagationDelay: 50 * time.Millisecond}}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			if res.PrefixIndex == nil || res.PrefixIndex.Published == 0 {
				t.Error("the index saw no publications beside the table")
			}
		}},
		// Without migration a diverted session leaves its old pin behind
		// while the new replica pins the longer context: sessions with
		// several holders, across both shards.
		{"affinity-no-migrate", func() Config {
			return Config{Replicas: 3, Policy: router.NewSessionAffinity()}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			if h.multi == 0 {
				t.Error("no session ever had two holders")
			}
		}},
		{"least-queue-migrate", func() Config {
			return Config{Replicas: 3, Policy: router.NewLeastQueue(), Migrate: true}
		}, func(t *testing.T, h *holderCheck, res *Result) {
			if h.found == 0 {
				t.Error("the donor scan never found a donor")
			}
		}},
	}
	for _, row := range rows {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, shards), func(t *testing.T) {
				cfg := row.cfg()
				cfg.Shards = shards
				h, res := runHolderCheck(t, cfg, testPool, w)
				if h.c.holdersForPick && h.picks == 0 {
					t.Error("no routing decision carried a session")
				}
				if cfg.Migrate && h.c.idx == nil && h.donors == 0 {
					t.Error("no donor choice was checked")
				}
				if row.check != nil {
					row.check(t, h, res)
				}
			})
		}
	}
}

// TestPinHolderTableRandomScenarios runs the check over seeded random
// scenarios (autoscale, topologies, migration, gateway and chaos faults),
// at one and two shards.
func TestPinHolderTableRandomScenarios(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, shards := range []int{1, 2} {
			sc := RandomScenario(rand.New(rand.NewSource(seed)))
			sc.Config.Shards = shards
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				runHolderCheck(t, sc.Config, sc.Build, sc.Workload)
			})
		}
	}
}

// TestPinHolderUpdateAllocs: once a session's entry has existed, pinning
// and unpinning it — inline or spilled — allocates nothing.
func TestPinHolderUpdateAllocs(t *testing.T) {
	tbl := holderTable{}
	cycle := func() {
		for r := 0; r < 3; r++ {
			tbl.set(7, r, true)
		}
		for r := 0; r < 3; r++ {
			tbl.set(7, r, false)
		}
		// Session 9 keeps one holder, so its spilled slice survives.
		for r := 0; r < 8; r++ {
			tbl.set(9, r, true)
		}
		for r := 1; r < 8; r++ {
			tbl.set(9, r, false)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warmed pin-holder update made %v allocations, want 0", allocs)
	}
}

// TestHolderSetOrder drives one holder set through random adds and
// removals across the inline/overflow boundary against a sorted-slice
// model.
func TestHolderSetOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h holderSet
	var model []int
	for i := 0; i < 4000; i++ {
		id := rng.Intn(12)
		j, in := slices.BinarySearch(model, id)
		if rng.Intn(2) == 0 {
			h.add(id)
			if !in {
				model = slices.Insert(model, j, id)
			}
		} else {
			h.remove(id)
			if in {
				model = slices.Delete(model, j, j+1)
			}
		}
		if !slices.Equal(h.ids(), model) || h.n != len(model) {
			t.Fatalf("step %d: set holds %v (n=%d), want %v", i, h.ids(), h.n, model)
		}
	}
}

// TestPinDonorTieBreak: among holders pinning equally much, the lowest ID
// donates; the target itself and prefixes as long as the prompt never do;
// and prefixHolders lists a session's holders in ascending ID order.
func TestPinDonorTieBreak(t *testing.T) {
	c, err := New(Config{Replicas: 5, Shards: 2, Policy: router.NewLeastQueue(), Migrate: true}, testPool)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[int]int{1: 640, 2: 640, 3: 320, 4: 640}
	for id := 1; id <= 4; id++ {
		if !c.replicas[id].kv.InstallPrefix(5, pins[id], 0) {
			t.Fatalf("installing the pin on replica %d failed", id)
		}
	}
	if got := c.prefixHolders(5); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("holders %v, want [1 2 3 4]", got)
	}
	for _, tc := range []struct {
		target, prompt, donor, best int
	}{
		{0, 1000, 1, 640},  // tie between 1, 2 and 4: lowest ID
		{1, 1000, -1, 640}, // the target holds as much as anyone
		{3, 1000, 1, 640},
		{0, 640, 3, 320}, // only a prefix shorter than the prompt ships
		{0, 320, -1, 0},
	} {
		target := c.replicas[tc.target]
		own := target.kv.PeekPrefix(5)
		donor, best := c.pinDonor(5, target, own, tc.prompt, nil)
		wd, wb := scanDonor(c, 5, target, own, tc.prompt)
		if donor != tc.donor || best != tc.best || donor != wd || best != wb {
			t.Errorf("target %d prompt %d: donor %d (%d tokens), scan %d (%d), want %d (%d)",
				tc.target, tc.prompt, donor, best, wd, wb, tc.donor, tc.best)
		}
		// A route's holder list gives the same donor as the lookup.
		if d, b := c.pinDonor(5, target, own, tc.prompt, []int{1, 2, 3, 4}); d != donor || b != best {
			t.Errorf("target %d prompt %d: donor %d (%d tokens) from the route's holders, %d (%d) from the lookup",
				tc.target, tc.prompt, d, b, donor, best)
		}
	}
}
