package router

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/prefixindex"
)

// benchState builds n replicas in ID order with varied-but-deterministic
// load, plus a bound degenerate prefix index carrying the same view: every
// session 1..n is pinned somewhere, so affinity picks exercise the holder
// lookup rather than short-circuiting on a miss.
func benchState(n int) ([]Replica, *prefixindex.Index, []int) {
	reps := make([]Replica, n)
	x, err := prefixindex.New(prefixindex.Spec{}, n)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		f := &fakeReplica{id: i, queue: (i * 7) % 13, freeKV: 200 + (i*37)%800,
			totalKV: 1000, cached: map[int]int{}}
		reps[i] = f
		x.SeedReplica(i, 1000, 16)
		x.SetActive(i, true)
		x.Publish(prefixindex.Pub{Replica: i, Kind: prefixindex.EvLoad,
			Session: -1, Val: int64(f.queue)})
	}
	holders := make([]int, n) // session s's single holder is holders[s-1]
	for s := 1; s <= n; s++ {
		holder := (s * 13) % n
		holders[s-1] = holder
		reps[holder].(*fakeReplica).cached[s] = 640
		x.Publish(prefixindex.Pub{Replica: holder, Kind: prefixindex.EvPin,
			Session: s, Val: 640})
	}
	return reps, x, holders
}

// benchRequest is the i-th benchmark request over n replicas, carrying its
// session's holder as the cluster would.
func benchRequest(i, n int, holders []int) Request {
	s := 1 + i%n
	return Request{ID: i, Session: s, Turn: 2, PromptLen: 512, OutputLen: 128,
		PrefixHolders: holders[s-1 : s]}
}

func benchPolicies(x *prefixindex.Index) []Policy {
	ilq, isa := NewIndexedLeastQueue(), NewIndexedSessionAffinity()
	ilq.BindIndex(x)
	isa.BindIndex(x)
	return []Policy{NewLeastQueue(), NewSessionAffinity(), ilq, isa}
}

// BenchmarkRouterPick measures one routing decision at 4, 64, and 500
// replicas. The omniscient policies scan the pool's load signals, so
// their per-decision cost grows with N; the indexed policies read the
// prefix index's maps and tournament-tree roots, so theirs must stay flat
// — the property TestRouterPickFlatness gates in CI.
func BenchmarkRouterPick(b *testing.B) {
	for _, n := range []int{4, 64, 500} {
		reps, x, holders := benchState(n)
		for _, p := range benchPolicies(x) {
			b.Run(fmt.Sprintf("%s/replicas=%d", p.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = p.Pick(benchRequest(i, n, holders), reps)
				}
			})
		}
	}
}

// TestRouterPickFlatness is the scaling gate behind the indexed policies'
// O(1) claim: the per-decision cost at 500 replicas must stay within 1.5×
// of the 4-replica cost. The omniscient policies are exempt — their O(N)
// scans are the thing the index exists to avoid, and BenchmarkRouterPick
// shows the gap. Timing-sensitive, so it is opt-in via
// ROUTER_FLATNESS_GATE=1 and rides the CI bench-smoke step rather than the
// unit suite; each cost is the best of three testing.Benchmark runs to damp
// scheduler noise.
func TestRouterPickFlatness(t *testing.T) {
	if os.Getenv("ROUTER_FLATNESS_GATE") == "" {
		t.Skip("set ROUTER_FLATNESS_GATE=1 to run the scaling gate")
	}
	const flatness = 1.5
	cost := func(mk func(*prefixindex.Index) Policy, n int) float64 {
		reps, x, holders := benchState(n)
		p := mk(x)
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = p.Pick(benchRequest(i, n, holders), reps)
				}
			})
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	makers := map[string]func(*prefixindex.Index) Policy{
		NameIndexedLeastQueue: func(x *prefixindex.Index) Policy {
			p := NewIndexedLeastQueue()
			p.BindIndex(x)
			return p
		},
		NameIndexedSessionAffinity: func(x *prefixindex.Index) Policy {
			p := NewIndexedSessionAffinity()
			p.BindIndex(x)
			return p
		},
	}
	for name, mk := range makers {
		small, large := cost(mk, 4), cost(mk, 500)
		t.Logf("%s: %.1f ns/op at 4 replicas, %.1f ns/op at 500 (%.2fx)",
			name, small, large, large/small)
		if large > flatness*small {
			t.Errorf("%s: 500-replica pick costs %.1f ns/op, more than %.1fx the 4-replica %.1f ns/op",
				name, large, flatness, small)
		}
	}
}
