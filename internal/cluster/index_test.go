package cluster_test

// Equivalence and staleness tests for the event-published prefix index.
//
// The load-bearing claim behind the indexed routing policies is that the
// index is a pure restatement of replica state: with the degenerate spec
// (zero delay, zero drops, per-change load signalling) every indexed pick
// equals its omniscient twin's, so whole runs must be deep-equal once the
// index's own accounting is set aside. With staleness dialed in, runs must
// still complete and satisfy every conservation law — a dropped evict
// produces a detour, never a stall. CI runs these under -race (the names
// carry Determinism / Sharded / Invariant).

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/prefixindex"
	"repro/internal/router"
)

// indexedTwin maps an omniscient policy onto its indexed variant, or nil
// when it has none.
func indexedTwin(name string) router.Policy {
	switch name {
	case router.NameLeastQueue:
		return router.NewIndexedLeastQueue()
	case router.NameSessionAffinity:
		return router.NewIndexedSessionAffinity()
	}
	return nil
}

// normalizeIndexed strips the fields that legitimately differ between an
// indexed run and its omniscient twin: the policy name, the index's own
// stats, and the ClassIndex ledger row (publications travel the fabric in
// the indexed run only). Everything else — every request timeline, report
// percentile, migration count, scale event — must match exactly.
func normalizeIndexed(res *cluster.Result) {
	res.Policy = ""
	res.PrefixIndex = nil
	for i := range res.TransferClasses {
		if res.TransferClasses[i].Class == fabric.ClassIndex {
			res.TransferClasses[i] = fabric.ClassStats{Class: fabric.ClassIndex}
		}
	}
}

// TestIndexedDeterminismEquivalence: with the degenerate index spec the
// indexed policies must reproduce their omniscient twins decision for
// decision — whole-run Results deep-equal across the determinism grid
// (autoscale × topology × migration), which exercises lifecycle
// SetActive transitions, migration donor lookups, and prewarm/drain
// publication paths.
func TestIndexedDeterminismEquivalence(t *testing.T) {
	w := sessionWorkload(t)
	for _, row := range determinismGrid() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			base, _ := row.Make()
			if indexedTwin(base.Policy.Name()) == nil {
				t.Skipf("policy %s has no indexed variant", base.Policy.Name())
			}
			run := func(indexed bool) *cluster.Result {
				cfg, build := row.Make()
				if indexed {
					cfg.Policy = indexedTwin(cfg.Policy.Name())
				}
				cl, err := cluster.New(cfg, build)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			omni, idx := run(false), run(true)
			if idx.PrefixIndex == nil {
				t.Fatal("indexed run reported no index stats")
			}
			if idx.PrefixIndex.Published == 0 {
				t.Fatal("indexed run published no events")
			}
			if idx.PrefixIndex.Pending != 0 || idx.PrefixIndex.Dropped != 0 {
				t.Fatalf("degenerate index must apply everything: %+v", idx.PrefixIndex)
			}
			if omni.EventsProcessed != idx.EventsProcessed {
				t.Fatalf("degenerate index scheduled clock events: %d vs %d",
					omni.EventsProcessed, idx.EventsProcessed)
			}
			normalizeIndexed(omni)
			normalizeIndexed(idx)
			if !reflect.DeepEqual(omni, idx) {
				switch {
				case !reflect.DeepEqual(omni.Report, idx.Report):
					t.Fatalf("reports differ:\nomniscient %+v\nindexed    %+v", omni.Report, idx.Report)
				case !reflect.DeepEqual(omni.ScaleEvents, idx.ScaleEvents):
					t.Fatalf("scale events differ:\n%+v\n%+v", omni.ScaleEvents, idx.ScaleEvents)
				case omni.Migrations != idx.Migrations:
					t.Fatalf("migrations differ: %d vs %d", omni.Migrations, idx.Migrations)
				default:
					t.Fatal("indexed run diverged from omniscient twin")
				}
			}
		})
	}
}

// TestShardedIndexedDeterminism: every shard count must produce the
// exact Result of the one-shard run with the index on — including
// under propagation delay, drops, and heartbeats, where publications are
// buffered per shard and merged at barriers. Run under -race in CI.
func TestShardedIndexedDeterminism(t *testing.T) {
	w := sessionWorkload(t)
	specs := []*prefixindex.Spec{
		{}, // degenerate: synchronous publications
		{PropagationDelay: 50 * time.Millisecond, DropRate: 0.2,
			HeartbeatEvery: 250 * time.Millisecond, Seed: 11},
	}
	for _, spec := range specs {
		for _, shards := range []int{0, 2, 3} {
			run := func() *cluster.Result {
				cl, err := cluster.New(cluster.Config{
					Replicas:    3,
					Policy:      router.NewIndexedSessionAffinity(),
					Migrate:     true,
					Shards:      shards,
					PrefixIndex: spec,
				}, cluster.Engines(rtx4090, tokenFlow))
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("spec %+v shards=%d: repeated runs differ", *spec, shards)
			}
			if shards == 0 {
				continue
			}
			cl, err := cluster.New(cluster.Config{
				Replicas:    3,
				Policy:      router.NewIndexedSessionAffinity(),
				Migrate:     true,
				PrefixIndex: spec,
			}, cluster.Engines(rtx4090, tokenFlow))
			if err != nil {
				t.Fatal(err)
			}
			single, err := cl.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(single, a) {
				switch {
				case !reflect.DeepEqual(single.Report, a.Report):
					t.Fatalf("spec %+v shards=%d: reports differ:\n%+v\n%+v",
						*spec, shards, single.Report, a.Report)
				case !reflect.DeepEqual(single.PrefixIndex, a.PrefixIndex):
					t.Fatalf("spec %+v shards=%d: index stats differ:\n%+v\n%+v",
						*spec, shards, single.PrefixIndex, a.PrefixIndex)
				default:
					t.Fatalf("spec %+v shards=%d: sharded run diverged from one shard",
						*spec, shards)
				}
			}
		}
	}
}

// TestIndexedStalenessInvariants covers the staleness edge cases at cluster
// level: under aggressive drops and propagation delay the run must complete
// every request (a stale positive degrades to a prefix miss + recompute or
// a fallback divert, never a stall), the publication ledger must balance,
// and every cross-subsystem conservation law must hold. Run under -race in
// CI via the Invariant name.
func TestIndexedStalenessInvariants(t *testing.T) {
	w := sessionWorkload(t)
	for _, spec := range []*prefixindex.Spec{
		{DropRate: 0.5, Seed: 3},
		{PropagationDelay: 2 * time.Second, DropRate: 0.3,
			HeartbeatEvery: time.Second, Seed: 7},
	} {
		cl, err := cluster.New(cluster.Config{
			Replicas:    3,
			Policy:      router.NewIndexedSessionAffinity(),
			Migrate:     true,
			PrefixIndex: spec,
		}, cluster.Engines(rtx4090, tokenFlow))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("spec %+v: staleness stalled the run", *spec)
		}
		if res.Report.Finished != w.Len() {
			t.Fatalf("spec %+v: finished %d of %d requests",
				*spec, res.Report.Finished, w.Len())
		}
		st := res.PrefixIndex
		if st == nil || st.Published == 0 {
			t.Fatalf("spec %+v: no index accounting", *spec)
		}
		if st.Dropped == 0 {
			t.Fatalf("spec %+v: drop rate %v lost nothing over %d events",
				*spec, spec.DropRate, st.Published)
		}
		if err := cluster.CheckInvariants(res, w.Len()); err != nil {
			t.Fatalf("spec %+v: %v", *spec, err)
		}
	}
}
