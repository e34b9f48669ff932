package router

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/loadboard"
	"repro/internal/prefixindex"
)

// benchState builds n replicas in ID order with varied-but-deterministic
// load, plus a bound degenerate prefix index and a load board carrying the
// same view: every session 1..n is pinned somewhere, so affinity picks
// exercise the holder lookup rather than short-circuiting on a miss.
func benchState(n int) ([]Replica, *prefixindex.Index, *loadboard.Board, []int) {
	reps := make([]Replica, n)
	x, err := prefixindex.New(prefixindex.Spec{}, n)
	if err != nil {
		panic(err)
	}
	board := loadboard.New(n)
	for i := 0; i < n; i++ {
		f := &fakeReplica{id: i, queue: (i * 7) % 13, freeKV: 200 + (i*37)%800,
			totalKV: 1000, cached: map[int]int{}}
		reps[i] = f
		x.SeedReplica(i, 1000, 16)
		x.SetActive(i, true)
		x.Publish(prefixindex.Pub{Replica: i, Kind: prefixindex.EvLoad,
			Session: -1, Val: int64(f.queue)})
		board.SetCapacity(i, 1000)
		board.SetActive(i, true)
		board.SetQueue(i, f.queue)
	}
	holders := make([]int, n) // session s's single holder is holders[s-1]
	for s := 1; s <= n; s++ {
		holder := (s * 13) % n
		holders[s-1] = holder
		reps[holder].(*fakeReplica).cached[s] = 640
		x.Publish(prefixindex.Pub{Replica: holder, Kind: prefixindex.EvPin,
			Session: s, Val: 640})
	}
	return reps, x, board, holders
}

// benchRequest is the i-th benchmark request over n replicas, carrying its
// session's holder and the load board as the cluster would.
func benchRequest(i, n int, holders []int, loads *loadboard.Board) Request {
	s := 1 + i%n
	return Request{ID: i, Session: s, PromptLen: 512, OutputLen: 128,
		PrefixHolders: holders[s-1 : s], Loads: loads}
}

// benchPolicy is one policy under measurement: whether it scans the view,
// and its constructor over the bench state's index.
type benchPolicy struct {
	name string
	scan bool
	make func(*prefixindex.Index) Policy
}

// refPolicy routes by a test reference's view scan.
type refPolicy func(Request, []Replica) int

func (refPolicy) Name() string                           { return "reference" }
func (p refPolicy) Pick(req Request, reps []Replica) int { return p(req, reps) }

func benchPolicies() []benchPolicy {
	return []benchPolicy{
		{NameLeastQueue + "/board", false, func(*prefixindex.Index) Policy { return NewLeastQueue() }},
		{NameWeightedCapacity + "/board", false, func(*prefixindex.Index) Policy { return NewWeightedCapacity() }},
		{NameSessionAffinity + "/board", false, func(*prefixindex.Index) Policy { return NewSessionAffinity() }},
		{NameLeastQueue + "/scan", true, func(*prefixindex.Index) Policy {
			return refPolicy(func(_ Request, reps []Replica) int { return refLeastQueue(reps) })
		}},
		{NameWeightedCapacity + "/scan", true, func(*prefixindex.Index) Policy {
			return refPolicy(func(_ Request, reps []Replica) int { return refLeastLoad(reps) })
		}},
		{NameSessionAffinity + "/scan", true, func(*prefixindex.Index) Policy { return refPolicy(refSessionAffinity) }},
		{NameLeastKV, true, func(*prefixindex.Index) Policy { return NewLeastKV() }},
		{NameIndexedLeastQueue, false, func(x *prefixindex.Index) Policy {
			p := NewIndexedLeastQueue()
			p.BindIndex(x)
			return p
		}},
		{NameIndexedSessionAffinity, false, func(x *prefixindex.Index) Policy {
			p := NewIndexedSessionAffinity()
			p.BindIndex(x)
			return p
		}},
	}
}

// pickLoop returns a benchmark body routing through p over the bench
// state of n replicas.
func pickLoop(bp benchPolicy, n int) func(b *testing.B) {
	reps, x, board, holders := benchState(n)
	p := bp.make(x)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.Pick(benchRequest(i, n, holders, board), reps)
		}
	}
}

// BenchmarkRouterPick measures one routing decision at 4, 64, and 500
// replicas. Least-queue, weighted-capacity and session-affinity run twice:
// reading a load board's tree roots, as the cluster routes them, and as
// their test references, which scan the view (the /scan rows). Least-kv
// scans, so its per-decision cost grows with N; the board-fed and indexed
// policies must stay flat — the property TestRouterPickFlatness gates in
// CI.
func BenchmarkRouterPick(b *testing.B) {
	for _, n := range []int{4, 64, 500} {
		for _, bp := range benchPolicies() {
			b.Run(fmt.Sprintf("%s/replicas=%d", bp.name, n), pickLoop(bp, n))
		}
	}
}

// TestRouterPickFlatness is the scaling gate behind the O(1) pick claim:
// for the policies that read a load board (least-queue, weighted-capacity,
// session-affinity) and the indexed ones, the per-decision cost at 500
// replicas must stay within 1.5× of the 4-replica cost. Least-kv is
// exempt: its key, the free KV pages, moves on every page grow, so it
// stays a scan, and so are the test references' scans;
// BenchmarkRouterPick shows the gap. Timing-sensitive, so it is
// opt-in via ROUTER_FLATNESS_GATE=1 and rides the CI bench-smoke step
// rather than the unit suite; each cost is the best of three
// testing.Benchmark runs to damp scheduler noise.
func TestRouterPickFlatness(t *testing.T) {
	if os.Getenv("ROUTER_FLATNESS_GATE") == "" {
		t.Skip("set ROUTER_FLATNESS_GATE=1 to run the scaling gate")
	}
	const flatness = 1.5
	cost := func(bp benchPolicy, n int) float64 {
		body := pickLoop(bp, n)
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			r := testing.Benchmark(body)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	for _, bp := range benchPolicies() {
		if bp.scan {
			continue // O(N) by design
		}
		small, large := cost(bp, 4), cost(bp, 500)
		t.Logf("%s: %.1f ns/op at 4 replicas, %.1f ns/op at 500 (%.2fx)",
			bp.name, small, large, large/small)
		if large > flatness*small {
			t.Errorf("%s: 500-replica pick costs %.1f ns/op, more than %.1fx the 4-replica %.1f ns/op",
				bp.name, large, flatness, small)
		}
	}
}
