package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/prefixindex"
	"repro/internal/router"
	"repro/internal/simtest"
)

// boardPolicies are the policies the cluster feeds its live load board.
var boardPolicies = []func() router.Policy{
	func() router.Policy { return router.NewLeastQueue() },
	func() router.Policy { return router.NewWeightedCapacity() },
	func() router.Policy { return router.NewSessionAffinity() },
}

// runBoardPair runs cfg once with the live load board and once with it
// withheld, so every pick scans the routing view, and requires deep-equal
// Results and byte-identical exports.
func runBoardPair(t *testing.T, mk func() (cluster.Config, cluster.BuildEngine), run func(cluster.Config, cluster.BuildEngine, func(*cluster.Cluster)) quietRun) {
	t.Helper()
	withBoard := func(cl *cluster.Cluster) {
		if !cl.HasLoadBoard() {
			t.Fatal("the cluster keeps no load board for a board-fed policy")
		}
	}
	withheld := func(cl *cluster.Cluster) {
		cl.WithholdLoadBoard()
		if cl.HasLoadBoard() {
			t.Fatal("the load board was not withheld")
		}
	}
	cfg, build := mk()
	board := run(cfg, build, withBoard)
	cfg, build = mk()
	simtest.SameRuns(t, board, run(cfg, build, withheld))
}

// TestLoadBoardExact holds the live load board to the view scan it
// replaced: least-queue, weighted-capacity and session-affinity, forced
// onto the determinism grid and 16 random scenarios (chaos, autoscaling,
// the gateway, per-change and heartbeat prefix indexes, one and two
// shards), give deep-equal Results and byte-identical event and series
// exports whether they read the board or scan the view.
func TestLoadBoardExact(t *testing.T) {
	w := sessionWorkload(t)
	for r, row := range determinismGrid() {
		for p, policy := range boardPolicies {
			for _, shards := range []int{1, 2} {
				index := (r+p)%2 == 1
				name := fmt.Sprintf("%s/%s/shards-%d/index-%v", row.Name, policy().Name(), shards, index)
				t.Run(name, func(t *testing.T) {
					mk := func() (cluster.Config, cluster.BuildEngine) {
						cfg, build := row.Make()
						cfg.Policy, cfg.Shards = policy(), shards
						if index {
							cfg.PrefixIndex = &prefixindex.Spec{}
						}
						return cfg, build
					}
					runBoardPair(t, mk, func(cfg cluster.Config, build cluster.BuildEngine, prep func(*cluster.Cluster)) quietRun {
						return runPrepared(t, cfg, build, w, prep)
					})
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
			var wl = cluster.RandomScenario(rand.New(rand.NewSource(seed))).Workload
			mk := func() (cluster.Config, cluster.BuildEngine) {
				sc := cluster.RandomScenario(rand.New(rand.NewSource(seed)))
				sc.Config.Policy, sc.Config.Shards, sc.Config.PrefixIndex = policy(), shards, index
				return sc.Config, sc.Build
			}
			runBoardPair(t, mk, func(cfg cluster.Config, build cluster.BuildEngine, prep func(*cluster.Cluster)) quietRun {
				return runPrepared(t, cfg, build, wl, prep)
			})
		})
	}
}
