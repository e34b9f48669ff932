package router

import (
	"math/rand"
	"testing"
)

// The references: the pool-scanning picks the production policies
// replaced. Each reads every replica in the view, in any view order, and
// ignores Request.Loads and Request.PrefixHolders; the board-fed and
// holder-based policies must match them decision for decision whenever
// the request's board covers exactly the view (withLoads) and its holders
// list exactly the replicas with a positive probe (withHolders).

// refLeastQueue is the view index of the replica with the fewest
// outstanding requests, ties by lowest ID: LeastQueue's pick.
func refLeastQueue(replicas []Replica) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		r := replicas[i]
		qi, qb := r.QueueDepth(), replicas[best].QueueDepth()
		if qi < qb || (qi == qb && r.ID() < replicas[best].ID()) {
			best = i
		}
	}
	return best
}

// refLeastLoad is the view index of the replica with the lowest
// outstanding count per KV page, ties by larger capacity, then lowest ID:
// WeightedCapacity's pick.
func refLeastLoad(replicas []Replica) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		r := replicas[i]
		// Compare q_i/cap_i < q_best/cap_best by cross-multiplying (exact
		// integer arithmetic keeps picks deterministic).
		qi, ci := r.QueueDepth(), r.TotalKVPages()
		qb, cb := replicas[best].QueueDepth(), replicas[best].TotalKVPages()
		li, lb := qi*cb, qb*ci
		if li < lb || (li == lb && (ci > cb || (ci == cb && r.ID() < replicas[best].ID()))) {
			best = i
		}
	}
	return best
}

// refMinQueue is the smallest outstanding count in the view.
func refMinQueue(replicas []Replica) int {
	m := replicas[0].QueueDepth()
	for _, r := range replicas[1:] {
		m = min(m, r.QueueDepth())
	}
	return m
}

// refSessionAffinity is SessionAffinity's pick: the replica with the
// largest pinned prefix, found by probing CachedPrefixTokens on every
// replica in the view, behind the memory and overload guards, else the
// capacity-weighted pick.
func refSessionAffinity(req Request, replicas []Replica) int {
	if req.Session != 0 {
		best, bestTokens := -1, 0
		for i, r := range replicas {
			if t := r.CachedPrefixTokens(req.Session); t > bestTokens {
				best, bestTokens = i, t
			}
		}
		if best >= 0 &&
			replicas[best].FreeKVTokens()+bestTokens >= req.PromptLen+req.OutputLen &&
			replicas[best].QueueDepth() <= 2*refMinQueue(replicas)+affinityOverloadSlack {
			return best
		}
	}
	return refLeastLoad(replicas)
}

// affinityCase is one pool, the subset of it in the routing view, and a
// request. Holders are taken from the whole pool, in the view or not.
type affinityCase struct {
	name   string
	pool   []*fakeReplica
	inView []int // pool IDs in the view, ascending; nil = the whole pool
	req    Request
	want   int // view index
}

// views builds the case's routing view, fills the request's holders from
// the whole pool, as the cluster's pin-holder table does, and gives it a
// load board whose routable replicas are the view, as the cluster's is.
func (c affinityCase) views() ([]Replica, Request) {
	var view []Replica
	if c.inView == nil {
		view = replicas(c.pool...)
	} else {
		for _, id := range c.inView {
			view = append(view, c.pool[id])
		}
	}
	return view, withLoads(withHolders(c.req, replicas(c.pool...)), view)
}

// TestSessionAffinityMatchesReference: hand-picked edges of the holder
// lookup — ties, holders outside the view, the memory and overload guards
// at their boundaries, and the stateless session — each picking what the
// pool scan picks.
func TestSessionAffinityMatchesReference(t *testing.T) {
	s5 := func(tokens int) map[int]int { return map[int]int{5: tokens} }
	req := Request{Session: 5, PromptLen: 640, OutputLen: 160}
	cases := []affinityCase{
		{"miss", []*fakeReplica{
			{id: 0, queue: 2, freeKV: 100}, {id: 1, queue: 1, freeKV: 100},
		}, nil, req, 1},
		{"tie-lowest-id-wins", []*fakeReplica{
			{id: 0, queue: 3, freeKV: 100},
			{id: 1, queue: 3, freeKV: 100, cached: s5(320)},
			{id: 2, queue: 0, freeKV: 100, cached: s5(320)},
		}, nil, req, 1},
		{"largest-holder-outside-view", []*fakeReplica{
			{id: 0, queue: 1, freeKV: 100, cached: s5(160)},
			{id: 1, queue: 0, freeKV: 100, cached: s5(480)},
			{id: 2, queue: 2, freeKV: 100},
		}, []int{0, 2}, req, 0},
		{"only-holder-outside-view", []*fakeReplica{
			{id: 0, queue: 1, freeKV: 100},
			{id: 1, queue: 0, freeKV: 100, cached: s5(480)},
			{id: 2, queue: 2, freeKV: 100},
		}, []int{0, 2}, req, 0},
		// 40 free pages = 640 tokens, + 160 pinned = 800 = prompt + output.
		{"memory-guard-exact-fit", []*fakeReplica{
			{id: 0, queue: 0, freeKV: 500},
			{id: 1, queue: 1, freeKV: 40, cached: s5(160)},
		}, nil, req, 1},
		{"memory-guard-one-page-short", []*fakeReplica{
			{id: 0, queue: 0, freeKV: 500},
			{id: 1, queue: 1, freeKV: 39, cached: s5(160)},
		}, nil, req, 0},
		// min queue 3: the holder may queue up to 2*3+4 = 10.
		{"overload-guard-at-bound", []*fakeReplica{
			{id: 0, queue: 3, freeKV: 100},
			{id: 1, queue: 10, freeKV: 100, cached: s5(160)},
			{id: 2, queue: 5, freeKV: 100},
		}, nil, req, 1},
		{"overload-guard-past-bound", []*fakeReplica{
			{id: 0, queue: 3, freeKV: 100},
			{id: 1, queue: 11, freeKV: 100, cached: s5(160)},
			{id: 2, queue: 5, freeKV: 100},
		}, nil, req, 0},
		// The lightest queue sits on a replica outside the holders: the
		// guard spans the whole view.
		{"overload-guard-spans-view", []*fakeReplica{
			{id: 0, queue: 7, freeKV: 100, cached: s5(160)},
			{id: 1, queue: 9, freeKV: 100},
			{id: 2, queue: 1, freeKV: 100},
		}, nil, req, 2},
		{"stateless", []*fakeReplica{
			{id: 0, queue: 2, freeKV: 100, cached: map[int]int{0: 800}},
			{id: 1, queue: 1, freeKV: 100, cached: map[int]int{0: 800}},
		}, nil, Request{PromptLen: 64, OutputLen: 16}, 1},
		{"sparse-ids", []*fakeReplica{
			{id: 0, queue: 0, freeKV: 100},
			{id: 1, queue: 0, freeKV: 100},
			{id: 2, queue: 1, freeKV: 100, cached: s5(160)},
			{id: 3, queue: 0, freeKV: 100, cached: s5(320)},
			{id: 4, queue: 0, freeKV: 100},
		}, []int{1, 2, 4}, req, 1},
	}
	for _, c := range cases {
		view, r := c.views()
		got := NewSessionAffinity().Pick(r, view)
		want := refSessionAffinity(r, view)
		if got != c.want || want != c.want {
			t.Errorf("%s: Pick = %d, reference = %d, want %d", c.name, got, want, c.want)
		}
	}
}

// byteReader decodes fuzz input, reading zero once the bytes run out.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeAffinityCase turns fuzz bytes into a pool of up to 8 replicas, a
// view over a subset of it in ascending ID order, and a request. Values
// are drawn from small sets so that ties, empty holder lists and guard
// boundaries (all sizes are multiples of the 16-token page) come up often.
func decodeAffinityCase(data []byte) affinityCase {
	b := byteReader(data)
	n := 1 + b.next()%8
	session := b.next() % 3 // 0 is the stateless session
	tokenSet := [...]int{0, 0, 0, 16, 160, 160, 320, 640}
	var c affinityCase
	c.inView = []int{}
	for id := 0; id < n; id++ {
		flags := b.next()
		f := &fakeReplica{
			id:      id,
			queue:   b.next() % 16,
			freeKV:  b.next() % 64,
			totalKV: 1000 * (1 + flags>>4&1),
			cached:  map[int]int{},
		}
		if t := tokenSet[flags>>1&7]; t > 0 {
			f.cached[session] = t
		}
		c.pool = append(c.pool, f)
		if flags&1 == 0 {
			c.inView = append(c.inView, id)
		}
	}
	if len(c.inView) == 0 {
		c.inView = []int{b.next() % n}
	}
	id := b.next()
	b.next() // a turn number, which Request no longer carries; kept so the corpus decodes as before
	c.req = Request{
		ID:        id,
		Session:   session,
		PromptLen: 16 * (b.next() % 64),
		OutputLen: 16 * (b.next() % 8),
	}
	return c
}

// FuzzSessionAffinityPick: on any decoded pool, view and request, the
// holder-based, board-fed Pick chooses the same view index as the pool
// scan.
func FuzzSessionAffinityPick(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 4, 40, 4, 3, 40, 6, 10, 40, 0, 1, 50, 10})
	f.Add([]byte{7, 2, 0xff, 0, 0, 0xff, 1, 1, 0xff, 2, 2, 6, 0, 63, 6, 0, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeAffinityCase(data)
		view, req := c.views()
		got := NewSessionAffinity().Pick(req, view)
		want := refSessionAffinity(req, view)
		if got != want {
			t.Fatalf("Pick = %d (replica %d), reference = %d (replica %d)\nrequest %+v",
				got, view[got].ID(), want, view[want].ID(), req)
		}
	})
}

// TestBoardPicksMatchReferences: on random decoded pools, views and
// requests, least-queue and weighted-capacity read from the board the
// view index their view scans pick.
func TestBoardPicksMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		view, req := decodeAffinityCase(data).views()
		for _, c := range []struct {
			p   Policy
			ref func([]Replica) int
		}{{NewLeastQueue(), refLeastQueue}, {NewWeightedCapacity(), refLeastLoad}} {
			if got, want := c.p.Pick(req, view), c.ref(view); got != want {
				t.Fatalf("case %d: %s picked %d (replica %d), reference %d (replica %d)",
					i, c.p.Name(), got, view[got].ID(), want, view[want].ID())
			}
		}
		if got, want := req.Loads.MinQueue(), refMinQueue(view); got != want {
			t.Fatalf("case %d: board MinQueue %d, reference %d", i, got, want)
		}
	}
}

// TestSessionAffinityPickAllocs: a pick with holders and a board allocates
// nothing.
func TestSessionAffinityPickAllocs(t *testing.T) {
	pool := replicas(
		&fakeReplica{id: 0, queue: 2, freeKV: 100, cached: map[int]int{}},
		&fakeReplica{id: 1, queue: 1, freeKV: 100, cached: map[int]int{5: 320}},
		&fakeReplica{id: 2, queue: 0, freeKV: 100, cached: map[int]int{5: 160}},
	)
	req := withLoads(withHolders(Request{Session: 5, PromptLen: 400, OutputLen: 32}, pool), pool)
	p := NewSessionAffinity()
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Pick(req, pool) }); allocs != 0 {
		t.Errorf("SessionAffinity.Pick made %v allocations, want 0", allocs)
	}
}
