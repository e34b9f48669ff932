package loadboard

// tree is a tournament (winner) tree over the cluster's replica slots: a
// complete binary tree whose leaves are replica IDs and whose internal
// nodes hold the winner of their children under a strict comparator. The
// overall winner is a root read — O(1) — and absorbing one replica's
// key change replays a single leaf-to-root path — O(log N). This is what
// makes a routing decision's cost independent of pool size where a scan
// reads all N replicas.
//
// Lazy-deletion heaps were considered and rejected: every stale entry they
// pop rides the hot Pick path, growing it back toward O(log N · churn) and
// past the flatness gate. The tournament tree's winner is a pure function
// of the current leaves, so a read repairs only the leaves that changed.
type tree struct {
	// n is the replica count; size the power-of-two leaf span. node[1] is
	// the root; node[size+i] the leaf for replica i (-1 pads the span).
	n, size int
	node    []int32
	// beats is the strict total order: beats(a, b) reports whether
	// replica a wins against replica b. Padding losers are handled here,
	// not in the comparator.
	beats func(a, b int) bool
}

// newTree builds a tree over n replicas and plays every match once.
func newTree(n int, beats func(a, b int) bool) tree {
	size := 1
	for size < n {
		size *= 2
	}
	t := tree{n: n, size: size, beats: beats, node: make([]int32, 2*size)}
	for i := range t.node {
		t.node[i] = -1
	}
	for i := 0; i < n; i++ {
		t.node[size+i] = int32(i)
	}
	for i := size - 1; i >= 1; i-- {
		t.node[i] = t.play(t.node[2*i], t.node[2*i+1])
	}
	return t
}

// play returns the winner of two slots; -1 padding always loses.
func (t *tree) play(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if t.beats(int(a), int(b)) {
		return a
	}
	return b
}

// update replays replica i's matches up to the root after its key changed.
// It stops early when a replay leaves a node's winner unchanged AND the
// node did not previously award the match to i — if it did, i's new key
// must still be re-compared all the way up.
func (t *tree) update(i int) {
	for j := (t.size + i) / 2; j >= 1; j /= 2 {
		w := t.play(t.node[2*j], t.node[2*j+1])
		if w == t.node[j] && w != int32(i) {
			return
		}
		t.node[j] = w
	}
}

// winner returns the tree's current overall winner, or -1 when every slot
// is a padding loser (no replicas).
func (t *tree) winner() int { return int(t.node[1]) }
