package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/trace"
)

// boardPolicies are the policies the cluster feeds its live load board.
var boardPolicies = []func() router.Policy{
	func() router.Policy { return router.NewLeastQueue() },
	func() router.Policy { return router.NewWeightedCapacity() },
	func() router.Policy { return router.NewSessionAffinity() },
}

// loadCheck wraps a board-fed policy the way an outside wrapper would —
// forwarding Name, so the cluster keeps the board for it — and at every
// routing decision compares the board's three answers with a scan of the
// routing view.
type loadCheck struct {
	router.Policy
	t     *testing.T
	picks int
}

// wrapLoadCheck returns the checking wrapper, keeping the wrapped
// policy's Scorer (every board-fed policy is one; the cluster scores
// route decisions by type assertion).
func wrapLoadCheck(t *testing.T, p router.Policy) (router.Policy, *loadCheck) {
	l := &loadCheck{Policy: p, t: t}
	return struct {
		*loadCheck
		router.Scorer
	}{l, p.(router.Scorer)}, l
}

// scanLoads is the reference: the view's least-queue and capacity-weighted
// winners (replica IDs, ties as the policies break them) and its smallest
// outstanding count.
func scanLoads(views []router.Replica) (leastQueue, leastLoad, minQueue int) {
	q, ll := views[0], views[0]
	for _, r := range views[1:] {
		if r.QueueDepth() < q.QueueDepth() || (r.QueueDepth() == q.QueueDepth() && r.ID() < q.ID()) {
			q = r
		}
		li, lb := r.QueueDepth()*ll.TotalKVPages(), ll.QueueDepth()*r.TotalKVPages()
		ci, cb := r.TotalKVPages(), ll.TotalKVPages()
		if li < lb || (li == lb && (ci > cb || (ci == cb && r.ID() < ll.ID()))) {
			ll = r
		}
	}
	return q.ID(), ll.ID(), q.QueueDepth()
}

func (l *loadCheck) Pick(req router.Request, views []router.Replica) int {
	l.picks++
	for i := 1; i < len(views); i++ {
		if views[i-1].ID() >= views[i].ID() {
			l.t.Errorf("request %d: view out of ascending ID order at %d: replica %d after %d",
				req.ID, i, views[i].ID(), views[i-1].ID())
		}
	}
	wq, wl, wm := scanLoads(views)
	if q, ld, m := req.Loads.LeastQueue(), req.Loads.LeastLoad(), req.Loads.MinQueue(); q != wq || ld != wl || m != wm {
		l.t.Errorf("request %d: board says least-queue %d, least-load %d, min queue %d; the view scan %d, %d, %d",
			req.ID, q, ld, m, wq, wl, wm)
	}
	return l.Policy.Pick(req, views)
}

// runLoadCheck runs one configuration with the checking wrapper.
func runLoadCheck(t *testing.T, cfg cluster.Config, build cluster.BuildEngine, w trace.Workload) {
	t.Helper()
	var l *loadCheck
	cfg.Policy, l = wrapLoadCheck(t, cfg.Policy)
	if n, err := cfg.Normalize(); err != nil || n.Shards != 1 {
		t.Fatalf("a board-fed run normalizes to %d shards (%v), want 1: the board is read on one clock", n.Shards, err)
	}
	cl, err := cluster.New(cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckInvariants(res, w.Len()); err != nil {
		t.Fatal(err)
	}
	if l.picks == 0 {
		t.Fatal("no routing decision was checked")
	}
}

// TestLoadBoardExact holds the live load board to the view scan it
// replaced, at every routing decision: least-queue, weighted-capacity and
// session-affinity, forced onto the determinism grid and 16 random
// scenarios (chaos, autoscaling, the gateway, per-change and heartbeat
// prefix indexes), must find the board's least-queue, least-load and
// min-queue answers equal to a scan of the view they are handed, and that
// view in ascending ID order. The shard count each name carries is the
// one the configuration asks for; a board-fed run normalizes it to one.
func TestLoadBoardExact(t *testing.T) {
	w := sessionWorkload(t)
	for r, row := range determinismGrid() {
		for p, policy := range boardPolicies {
			for _, shards := range []int{1, 2} {
				index := (r+p)%2 == 1
				name := fmt.Sprintf("%s/%s/shards-%d/index-%v", row.Name, policy().Name(), shards, index)
				t.Run(name, func(t *testing.T) {
					cfg, build := row.Make()
					cfg.Policy, cfg.Shards = policy(), shards
					if index {
						cfg.PrefixIndex = &prefixindex.Spec{}
					}
					runLoadCheck(t, cfg, build, w)
				})
			}
		}
	}

	for seed := int64(0); seed < 16; seed++ {
		policy := boardPolicies[seed%int64(len(boardPolicies))]
		shards := 1 + int(seed/3)%2
		var index *prefixindex.Spec
		switch seed % 4 {
		case 1:
			index = &prefixindex.Spec{}
		case 3:
			index = &prefixindex.Spec{HeartbeatEvery: 250 * time.Millisecond, PropagationDelay: 20 * time.Millisecond}
		}
		name := fmt.Sprintf("random-%d/%s/shards-%d/index-%v", seed, policy().Name(), shards, index != nil)
		t.Run(name, func(t *testing.T) {
			sc := cluster.RandomScenario(rand.New(rand.NewSource(seed)))
			sc.Config.Policy, sc.Config.Shards, sc.Config.PrefixIndex = policy(), shards, index
			runLoadCheck(t, sc.Config, sc.Build, sc.Workload)
		})
	}
}
