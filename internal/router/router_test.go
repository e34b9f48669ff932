package router

import (
	"slices"
	"testing"

	"repro/internal/loadboard"
	"repro/internal/prefixindex"
)

// fakeReplica is a synthetic replica state for policy tests; pages are
// 16 tokens, and a zero totalKV defaults to 1000 pages.
type fakeReplica struct {
	id      int
	queue   int
	freeKV  int
	totalKV int
	cached  map[int]int
}

func (f *fakeReplica) ID() int          { return f.id }
func (f *fakeReplica) QueueDepth() int  { return f.queue }
func (f *fakeReplica) FreeKVPages() int { return f.freeKV }
func (f *fakeReplica) TotalKVPages() int {
	if f.totalKV == 0 {
		return 1000
	}
	return f.totalKV
}
func (f *fakeReplica) FreeKVTokens() int { return f.freeKV * 16 }
func (f *fakeReplica) CachedPrefixTokens(session int) int {
	return f.cached[session]
}

func replicas(fs ...*fakeReplica) []Replica {
	out := make([]Replica, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// withHolders fills req.PrefixHolders the way the cluster does: the
// ascending IDs of every replica pinning a prefix of the session.
func withHolders(req Request, reps []Replica) Request {
	req.PrefixHolders = nil
	if req.Session == 0 {
		return req
	}
	for _, r := range reps {
		if r.CachedPrefixTokens(req.Session) > 0 {
			req.PrefixHolders = append(req.PrefixHolders, r.ID())
		}
	}
	slices.Sort(req.PrefixHolders)
	return req
}

// withLoads sets req.Loads the way the cluster does: a load board over the
// pool's IDs whose routable replicas are exactly the view.
func withLoads(req Request, view []Replica) Request {
	n := 0
	for _, r := range view {
		n = max(n, r.ID()+1)
	}
	b := loadboard.New(n)
	for _, r := range view {
		b.SetCapacity(r.ID(), r.TotalKVPages())
		b.SetQueue(r.ID(), r.QueueDepth())
		b.SetActive(r.ID(), true)
	}
	req.Loads = b
	return req
}

func TestPoliciesPick(t *testing.T) {
	// Three replicas: 0 busy but memory-rich, 1 idle but memory-poor,
	// 2 middling but holding session 7's prefix.
	state := func() []Replica {
		return replicas(
			&fakeReplica{id: 0, queue: 9, freeKV: 900, cached: map[int]int{}},
			&fakeReplica{id: 1, queue: 1, freeKV: 100, cached: map[int]int{}},
			&fakeReplica{id: 2, queue: 4, freeKV: 400, cached: map[int]int{7: 640}},
		)
	}
	session7 := Request{ID: 1, Session: 7, PromptLen: 700, OutputLen: 100}
	stateless := Request{ID: 2, PromptLen: 512, OutputLen: 256}

	cases := []struct {
		policy Policy
		req    Request
		want   int
	}{
		{NewLeastQueue(), stateless, 1},
		{NewLeastQueue(), session7, 1},
		{NewLeastKV(), stateless, 0},
		{NewLeastKV(), session7, 0},
		// Affinity: session 7 sticks to replica 2 despite its load ...
		{NewSessionAffinity(), session7, 2},
		// ... but stateless requests and unknown sessions fall back to
		// least-queue.
		{NewSessionAffinity(), stateless, 1},
		{NewSessionAffinity(), Request{ID: 3, Session: 8}, 1},
	}
	for _, c := range cases {
		views := state()
		if got := c.policy.Pick(withLoads(withHolders(c.req, views), views), views); got != c.want {
			t.Errorf("%s.Pick(session=%d) = %d, want %d", c.policy.Name(), c.req.Session, got, c.want)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin()
	reps := replicas(
		&fakeReplica{id: 0, queue: 100},
		&fakeReplica{id: 1},
		&fakeReplica{id: 2},
	)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := rr.Pick(Request{ID: i}, reps); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestTiesBreakByLowestIndex(t *testing.T) {
	reps := replicas(
		&fakeReplica{id: 0, queue: 2, freeKV: 50},
		&fakeReplica{id: 1, queue: 2, freeKV: 50},
	)
	if got := NewLeastQueue().Pick(withLoads(Request{}, reps), reps); got != 0 {
		t.Errorf("least-queue tie = %d, want 0", got)
	}
	if got := NewLeastKV().Pick(Request{}, reps); got != 0 {
		t.Errorf("least-kv tie = %d, want 0", got)
	}
}

func TestAffinityPrefersLargestPrefix(t *testing.T) {
	reps := replicas(
		&fakeReplica{id: 0, freeKV: 500, cached: map[int]int{5: 100}},
		&fakeReplica{id: 1, freeKV: 500, cached: map[int]int{5: 800}},
		&fakeReplica{id: 2, freeKV: 500, queue: 0},
	)
	if got := NewSessionAffinity().Pick(withLoads(withHolders(Request{Session: 5, PromptLen: 900}, reps), reps), reps); got != 1 {
		t.Errorf("affinity = %d, want 1 (largest cached prefix)", got)
	}
}

// TestAffinityFallsBackWhenTargetFull: the unified residency model means a
// replica with no free KV headroom for the prompt would evict the very
// prefix the session came for, so affinity yields to load balancing.
func TestAffinityFallsBackWhenTargetFull(t *testing.T) {
	reps := replicas(
		&fakeReplica{id: 0, queue: 3, freeKV: 500},
		// Replica 1 holds the prefix but only 32 free KV tokens.
		&fakeReplica{id: 1, queue: 5, freeKV: 2, cached: map[int]int{5: 800}},
		&fakeReplica{id: 2, queue: 1, freeKV: 500},
	)
	req := withLoads(withHolders(Request{Session: 5, PromptLen: 900}, reps), reps)
	if got := NewSessionAffinity().Pick(req, reps); got != 2 {
		t.Errorf("affinity with full target = %d, want 2 (least-queue fallback)", got)
	}
	// A prompt the target can still hold sticks as before.
	small := withLoads(withHolders(Request{Session: 5, PromptLen: 32}, reps), reps)
	if got := NewSessionAffinity().Pick(small, reps); got != 1 {
		t.Errorf("affinity with fitting prompt = %d, want 1", got)
	}
	// The pinned prefix itself counts as headroom: 32 free tokens + 800
	// adoptable cover an 830-token prompt.
	adoptable := withLoads(withHolders(Request{Session: 5, PromptLen: 830}, reps), reps)
	if got := NewSessionAffinity().Pick(adoptable, reps); got != 1 {
		t.Errorf("affinity with adoptable pin = %d, want 1", got)
	}
}

// TestAffinityFallsBackWhenTargetOverloaded: a pin holder queueing far
// beyond its lightest peer stalls the session longer than recomputing (or
// migrating) the prefix elsewhere, so affinity yields.
func TestAffinityFallsBackWhenTargetOverloaded(t *testing.T) {
	reps := replicas(
		&fakeReplica{id: 0, queue: 0, freeKV: 500},
		&fakeReplica{id: 1, queue: 12, freeKV: 500, cached: map[int]int{5: 800}},
	)
	req := withLoads(withHolders(Request{Session: 5, PromptLen: 900}, reps), reps)
	if got := NewSessionAffinity().Pick(req, reps); got != 0 {
		t.Errorf("affinity with overloaded target = %d, want 0 (least-queue fallback)", got)
	}
	// A moderately busy target still wins: affinity tolerates 2×min+slack.
	reps[1].(*fakeReplica).queue = 4
	if got := NewSessionAffinity().Pick(withLoads(req, reps), reps); got != 1 {
		t.Errorf("affinity with tolerable queue = %d, want 1", got)
	}
}

// TestWeightedCapacityNormalizesByPool: a big replica absorbs
// proportionally more queue before losing to a small one.
func TestWeightedCapacityNormalizesByPool(t *testing.T) {
	reps := replicas(
		&fakeReplica{id: 0, queue: 3, totalKV: 4000}, // 3/4000
		&fakeReplica{id: 1, queue: 1, totalKV: 1000}, // 4/4000
	)
	if got := NewWeightedCapacity().Pick(withLoads(Request{}, reps), reps); got != 0 {
		t.Errorf("weighted = %d, want 0 (lower load per capacity)", got)
	}
	// Equal normalized load ties toward the larger pool.
	tied := replicas(
		&fakeReplica{id: 0, queue: 1, totalKV: 1000},
		&fakeReplica{id: 1, queue: 4, totalKV: 4000},
	)
	if got := NewWeightedCapacity().Pick(withLoads(Request{}, tied), tied); got != 1 {
		t.Errorf("weighted tie = %d, want 1 (larger capacity)", got)
	}
	// Empty cluster-wide queue also ties toward capacity.
	idle := replicas(
		&fakeReplica{id: 0, totalKV: 1000},
		&fakeReplica{id: 1, totalKV: 4000},
	)
	if got := NewWeightedCapacity().Pick(withLoads(Request{}, idle), idle); got != 1 {
		t.Errorf("weighted idle = %d, want 1 (larger capacity)", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("warm-pool"); err == nil {
		t.Error("ByName with unknown policy should fail")
	}
}

// TestTieBreakStableByID: when two replicas report identical load signals,
// every selection policy must break the tie by the lower replica ID — not
// by slice position, which shifts as an autoscaled cluster's active subset
// changes. The board-fed and indexed policies read views in ascending ID
// order, as the cluster passes them; least-kv scans, so it must also pick
// the same replica from a view out of ID order.
func TestTieBreakStableByID(t *testing.T) {
	// Replicas 5 and 2 are indistinguishable on every signal; replica 9 is
	// strictly worse (deeper queue, less memory).
	state := func() []Replica {
		return replicas(
			&fakeReplica{id: 2, queue: 3, freeKV: 400, totalKV: 800},
			&fakeReplica{id: 5, queue: 3, freeKV: 400, totalKV: 800},
			&fakeReplica{id: 9, queue: 7, freeKV: 100, totalKV: 800},
		)
	}
	req := Request{ID: 1, PromptLen: 256, OutputLen: 128}
	pickedID := func(p Policy, views []Replica) int {
		return views[p.Pick(withLoads(req, views), views)].ID()
	}

	for _, p := range []Policy{NewLeastQueue(), NewLeastKV(), NewWeightedCapacity(), NewSessionAffinity()} {
		if got := pickedID(p, state()); got != 2 {
			t.Errorf("%s: tied pick went to replica %d, want lowest ID 2", p.Name(), got)
		}
	}
	// The same state permuted must pick the same replica.
	views := state()
	views[0], views[2] = views[2], views[0]
	views[1], views[2] = views[2], views[1]
	if got := pickedID(NewLeastKV(), views); got != 2 {
		t.Errorf("least-kv: permuted tied pick went to replica %d, want 2", got)
	}

	// The indexed variants must break the same tie the same way through the
	// prefix-index view: replicas 2 and 5 publish identical load, and the
	// tournament trees must crown the lowest ID.
	bindIndex := func(t *testing.T) *prefixindex.Index {
		t.Helper()
		x, err := prefixindex.New(prefixindex.Spec{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range state() {
			fr := f.(*fakeReplica)
			x.SeedReplica(fr.id, fr.TotalKVPages(), 16)
			x.SetActive(fr.id, true)
			x.Publish(prefixindex.Pub{Replica: fr.id, Kind: prefixindex.EvLoad,
				Session: -1, Val: int64(fr.queue)})
		}
		return x
	}
	for _, p := range []Policy{NewIndexedLeastQueue(), NewIndexedSessionAffinity()} {
		p.(IndexBinder).BindIndex(bindIndex(t))
		views := state()
		if got := views[p.Pick(req, views)].ID(); got != 2 {
			t.Errorf("%s: tied pick went to replica %d, want lowest ID 2", p.Name(), got)
		}
	}
}

// TestIndexedWinnerOutsideViewPicksNothing: an index winner the view does
// not hold is an index/view disagreement, which the indexed policies
// report as -1 rather than rescanning the view.
func TestIndexedWinnerOutsideViewPicksNothing(t *testing.T) {
	x, err := prefixindex.New(prefixindex.Spec{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		x.SeedReplica(id, 1000, 16)
		x.SetActive(id, true)
	}
	x.Publish(prefixindex.Pub{Replica: 1, Kind: prefixindex.EvLoad, Session: -1, Val: 5})
	x.Publish(prefixindex.Pub{Replica: 2, Kind: prefixindex.EvLoad, Session: -1, Val: 5})
	// Replica 0, the least loaded in the index, is missing from the view.
	view := replicas(&fakeReplica{id: 1, queue: 5}, &fakeReplica{id: 2, queue: 5})
	for _, p := range []Policy{NewIndexedLeastQueue(), NewIndexedSessionAffinity()} {
		p.(IndexBinder).BindIndex(x)
		if got := p.Pick(Request{ID: 1, Session: 3, PromptLen: 64}, view); got != -1 {
			t.Errorf("%s: picked %d with the index winner outside the view, want -1", p.Name(), got)
		}
	}
}
