package loadboard

import "testing"

// refBoard is the brute-force model: plain arrays, every answer a scan over
// the active replicas with the load policies' tie rules.
type refBoard struct {
	queue, capPages []int
	active          []bool
}

// leastQueue is LeastQueue's scan: fewest outstanding, then lowest ID.
func (r *refBoard) leastQueue() int {
	best := -1
	for i := range r.queue {
		if !r.active[i] {
			continue
		}
		if best < 0 || r.queue[i] < r.queue[best] {
			best = i
		}
	}
	return best
}

// leastLoad is WeightedCapacity's scan: lowest queue per page by
// cross-multiplication, then larger capacity, then lowest ID.
func (r *refBoard) leastLoad() int {
	best := -1
	for i := range r.queue {
		if !r.active[i] {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		li, lb := r.queue[i]*r.capPages[best], r.queue[best]*r.capPages[i]
		if li < lb || (li == lb && r.capPages[i] > r.capPages[best]) {
			best = i
		}
	}
	return best
}

func (r *refBoard) minQueue() int {
	if w := r.leastQueue(); w >= 0 {
		return r.queue[w]
	}
	return 0
}

// Read selections for check: one question alone leaves the other tree's
// repairs pending, as a router that only asks that question does.
const (
	readQueue = 1 << iota
	readLoad
	readMin
	readAll = readQueue | readLoad | readMin
)

// check compares the selected answers of b with the reference.
func check(t *testing.T, step, reads int, b *Board, r *refBoard) {
	t.Helper()
	if reads&readQueue != 0 {
		if got, want := b.LeastQueue(), r.leastQueue(); got != want {
			t.Fatalf("step %d: LeastQueue = %d, scan = %d", step, got, want)
		}
	}
	if reads&readLoad != 0 {
		if got, want := b.LeastLoad(), r.leastLoad(); got != want {
			t.Fatalf("step %d: LeastLoad = %d, scan = %d", step, got, want)
		}
	}
	if reads&readMin != 0 {
		if got, want := b.MinQueue(), r.minQueue(); got != want {
			t.Fatalf("step %d: MinQueue = %d, scan = %d", step, got, want)
		}
	}
}

func TestBoardEmptyPool(t *testing.T) {
	b := New(3)
	for i := 0; i < 3; i++ {
		b.SetCapacity(i, 100)
		b.SetQueue(i, i)
	}
	if w, l, m := b.LeastQueue(), b.LeastLoad(), b.MinQueue(); w != -1 || l != -1 || m != 0 {
		t.Fatalf("no active replica: LeastQueue %d, LeastLoad %d, MinQueue %d; want -1, -1, 0", w, l, m)
	}
	b.SetActive(2, true)
	if w, l, m := b.LeastQueue(), b.LeastLoad(), b.MinQueue(); w != 2 || l != 2 || m != 2 {
		t.Fatalf("only replica 2 active: LeastQueue %d, LeastLoad %d, MinQueue %d; want 2, 2, 2", w, l, m)
	}
}

// TestBoardWeightedTies: equal load per page goes to the larger pool, and
// equal pools to the lower ID.
func TestBoardWeightedTies(t *testing.T) {
	b := New(3)
	for i, c := range []int{1000, 4000, 1000} {
		b.SetCapacity(i, c)
		b.SetActive(i, true)
	}
	b.SetQueue(0, 1)
	b.SetQueue(1, 4)
	b.SetQueue(2, 1)
	if got := b.LeastLoad(); got != 1 {
		t.Errorf("LeastLoad = %d, want 1 (larger capacity on a tie)", got)
	}
	if got := b.LeastQueue(); got != 0 {
		t.Errorf("LeastQueue = %d, want 0 (lowest ID on a tie)", got)
	}
	b.SetQueue(1, 5)
	if got := b.LeastLoad(); got != 0 {
		t.Errorf("LeastLoad = %d, want 0 (lowest ID on a tie)", got)
	}
}

// FuzzLoadBoard: on any decoded replica count, capacities, and sequence
// of queue changes, activity toggles and reads, the board's LeastQueue,
// LeastLoad and MinQueue equal a brute-force scan over the active
// replicas. Input: byte 0 picks the replica count (1..70); the next n
// bytes each replica's capacity (four sizes, so ties are common); then
// each op is two bytes: the op's low two bits pick set-queue, toggle,
// set-capacity or read, the rest of that byte the replica, and the second
// byte the value (for a read, which questions: bits 0-2 of 1 + value%7).
func FuzzLoadBoard(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 2, 3, 1, 0, 5, 0, 9, 0, 13, 0, 3, 0, 0, 3, 4, 7, 3, 0})
	f.Add([]byte{2, 1, 1, 1, 0, 5, 0, 3, 0, 3, 0, 0, 9, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		n := 1 + next()%70
		b := New(n)
		r := &refBoard{queue: make([]int, n), capPages: make([]int, n), active: make([]bool, n)}
		for i := 0; i < n; i++ {
			c := 250 * (1 + next()%4)
			b.SetCapacity(i, c)
			r.capPages[i] = c
		}
		for step := 0; len(data) > 0; step++ {
			op := next()
			i, v := (op>>2)%n, next()
			switch op & 3 {
			case 0:
				b.SetQueue(i, v%16)
				r.queue[i] = v % 16
			case 1:
				b.SetActive(i, !r.active[i])
				r.active[i] = !r.active[i]
			case 2:
				c := 250 * (1 + v%4)
				b.SetCapacity(i, c)
				r.capPages[i] = c
			case 3:
				check(t, step, 1+v%7, b, r)
			}
			if got := b.Queue(i); got != r.queue[i] {
				t.Fatalf("step %d: Queue(%d) = %d, want %d", step, i, got, r.queue[i])
			}
			if got := b.Active(i); got != r.active[i] {
				t.Fatalf("step %d: Active(%d) = %v, want %v", step, i, got, r.active[i])
			}
		}
		check(t, -1, readAll, b, r)
	})
}
