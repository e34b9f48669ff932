// Package loadboard keeps the least-queue and capacity-weighted winners of
// a replica pool as tournament-tree root reads: a board holds each
// replica's outstanding request count, KV capacity in pages and whether it
// is routable, and answers the three load questions the routers ask —
// LeastQueue, LeastLoad and MinQueue — without scanning the pool.
//
// A write replays the changed leaf's path in the least-queue tree at once,
// O(log N), so LeastQueue and MinQueue are plain root reads. The
// capacity-weighted tree is read more rarely — session-affinity consults
// it only on fallback — so its repairs are deferred: a changed leaf is
// queued on a dirty list (a mark array dedupes it) and replayed by the
// next LeastLoad. A batch of leaf repairs yields the same tree whatever
// the replay order, so deferral never changes a winner a reader observes.
//
// The orders are the load policies' own: least-queue wins on the
// fewest outstanding requests, then the lowest replica ID;
// weighted-capacity on the lowest queue per KV page (exact cross-multiplied
// integers), then the larger capacity, then the lowest ID. Inactive
// replicas lose every match, so an inactive winner means the pool has no
// routable replica. Capacities must be positive for the weighted order to
// be a total order.
//
// The gateway's prefix index keeps its published digests in a board, and
// the cluster feeds one from the engines' live load signal for the
// board-fed policies, folding the replicas its engines marked dirty
// through the board's sync hook at each read. A board is not safe for
// concurrent use.
package loadboard

// Board is one pool's load state and its two winner trees.
type Board struct {
	reps []rep
	// actives counts the active replicas. Inactive replicas lose every
	// match, so a tree's root is active whenever any replica is; with
	// none, the reads answer -1.
	actives int
	// sync, when set, runs at the start of every read (SetSync).
	sync func()

	byQueue tree
	byLoad  dirtyTree
}

// rep is one replica's keys, kept together so a match reads one cache
// line per player.
type rep struct {
	queue, capPages int
	active          bool
}

// New builds a board over n replicas, all inactive with empty queues and
// zero capacity. Set each replica's capacity and activity before reading.
func New(n int) *Board {
	b := &Board{reps: make([]rep, n)}
	b.byQueue = newTree(n, b.queueBeats)
	b.byLoad.init(n, b.loadBeats)
	return b
}

// queueBeats is the byQueue order: fewest outstanding requests, ties by
// lowest replica ID — the least-queue comparator. Inactive replicas
// always lose.
func (b *Board) queueBeats(x, y int) bool {
	rx, ry := &b.reps[x], &b.reps[y]
	if rx.active != ry.active {
		return rx.active
	}
	if rx.queue != ry.queue {
		return rx.queue < ry.queue
	}
	return x < y
}

// loadBeats is the byLoad order: lowest queue per unit of KV capacity
// (exact cross-multiplied integers), ties by larger capacity then lowest
// ID — the weighted-capacity comparator.
func (b *Board) loadBeats(x, y int) bool {
	rx, ry := &b.reps[x], &b.reps[y]
	if rx.active != ry.active {
		return rx.active
	}
	lx, ly := rx.queue*ry.capPages, ry.queue*rx.capPages
	if lx != ly {
		return lx < ly
	}
	if rx.capPages != ry.capPages {
		return rx.capPages > ry.capPages
	}
	return x < y
}

// SetQueue records replica i's outstanding request count.
func (b *Board) SetQueue(i, queue int) {
	if b.reps[i].queue == queue {
		return
	}
	b.reps[i].queue = queue
	b.byQueue.update(i)
	b.byLoad.touch(i)
}

// SetCapacity records replica i's KV pool size in pages.
func (b *Board) SetCapacity(i, pages int) {
	if b.reps[i].capPages == pages {
		return
	}
	b.reps[i].capPages = pages
	b.byLoad.touch(i)
}

// SetActive marks replica i in or out of the routable set.
func (b *Board) SetActive(i int, active bool) {
	if b.reps[i].active == active {
		return
	}
	b.reps[i].active = active
	if active {
		b.actives++
	} else {
		b.actives--
	}
	b.byQueue.update(i)
	b.byLoad.touch(i)
}

// SetSync installs fn to run at the start of every LeastQueue, LeastLoad
// and MinQueue read, so an owner that records changes elsewhere — the
// cluster's dirty list of replicas whose load moved — folds them in
// before the board answers. fn may call the setters.
func (b *Board) SetSync(fn func()) { b.sync = fn }

// Queue reports replica i's recorded outstanding count.
func (b *Board) Queue(i int) int { return b.reps[i].queue }

// Active reports whether replica i is in the routable set.
func (b *Board) Active(i int) bool { return b.reps[i].active }

// LeastQueue returns the active replica with the fewest outstanding
// requests (ties by lowest ID), or -1 with no active replica. It reads the
// root directly to stay within the compiler's inlining budget: indexed
// picks call it on every decision.
func (b *Board) LeastQueue() int {
	if b.sync != nil {
		b.sync()
	}
	if b.actives == 0 {
		return -1
	}
	return int(b.byQueue.node[1])
}

// LeastLoad returns the active replica with the lowest queue per KV page
// (ties by larger capacity, then lowest ID), or -1 with no active replica.
func (b *Board) LeastLoad() int {
	if b.sync != nil {
		b.sync()
	}
	b.byLoad.repair()
	if b.actives == 0 {
		return -1
	}
	return b.byLoad.winner()
}

// MinQueue returns the smallest outstanding count among active replicas
// (0 with none active).
func (b *Board) MinQueue() int {
	w := b.LeastQueue()
	if w < 0 {
		return 0
	}
	return b.reps[w].queue
}

// dirtyTree is a tree with its deferred leaf repairs: dirty lists the
// replicas whose key changed since the last repair, mark dedupes it.
type dirtyTree struct {
	tree
	dirty []int32
	mark  []bool
}

func (t *dirtyTree) init(n int, beats func(a, b int) bool) {
	t.tree = newTree(n, beats)
	t.mark = make([]bool, n)
}

// touch queues replica i's leaf for the next repair.
func (t *dirtyTree) touch(i int) {
	if !t.mark[i] {
		t.mark[i] = true
		t.dirty = append(t.dirty, int32(i))
	}
}

// repair replays every queued leaf.
func (t *dirtyTree) repair() {
	for _, i := range t.dirty {
		t.mark[i] = false
		t.update(int(i))
	}
	t.dirty = t.dirty[:0]
}
