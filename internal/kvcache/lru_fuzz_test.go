package kvcache

import (
	"container/list"
	"slices"
	"testing"
)

// FuzzPinLRU drives the intrusive pin and host-mirror recency lists
// through random sequences and holds them to container/list, the list they
// replaced. Each input byte is one operation on one of eight pins: insert
// at the front, touch (move to the front), remove (take, adopt, supersede,
// migrate out), evict the back-most pin not excluded, or crash (drop
// every pin front to back). After each operation the eviction order
// (back to front) and the HottestPrefixes order (front to back) must match.
func FuzzPinLRU(f *testing.F) {
	f.Add([]byte{0, 1, 2, 8, 9, 26, 3, 17, 24, 32})
	f.Add([]byte{0, 8, 16, 1, 9, 2, 3, 4, 24, 32})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 15, 14, 13, 12, 27, 28, 29, 39})
	f.Add([]byte{0, 8, 0, 16, 24, 24, 1, 9, 17, 25, 33, 2, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got pinLRU
		var hostGot hostPinLRU
		ref, hostRef := list.New(), list.New()
		var pins [8]*pin
		var mirrors [8]*hostPin
		elems, hostElems := map[int]*list.Element{}, map[int]*list.Element{}
		for i := range pins {
			pins[i] = &pin{session: i}
			mirrors[i] = &hostPin{session: i}
		}
		for _, op := range ops {
			k := int(op % 8)
			p, hp := pins[k], mirrors[k]
			_, in := elems[k]
			_, hostIn := hostElems[k]
			switch op / 8 % 5 {
			case 0: // insert
				if !in {
					got.pushFront(p)
					elems[k] = ref.PushFront(k)
				}
				if !hostIn {
					hostGot.pushFront(hp)
					hostElems[k] = hostRef.PushFront(k)
				}
			case 1: // touch
				if in {
					got.moveToFront(p)
					ref.MoveToFront(elems[k])
				}
			case 2: // take, adopt, supersede or migrate out
				if in {
					got.remove(p)
					ref.Remove(elems[k])
					delete(elems, k)
				}
				if hostIn {
					hostGot.remove(hp)
					hostRef.Remove(hostElems[k])
					delete(hostElems, k)
				}
			case 3: // evict the LRU pin, skipping session k
				for q := got.back; q != nil; q = q.prev {
					if q.session != k {
						got.remove(q)
						break
					}
				}
				for el := ref.Back(); el != nil; el = el.Prev() {
					if el.Value.(int) != k {
						delete(elems, el.Value.(int))
						ref.Remove(el)
						break
					}
				}
			case 4: // crash
				for q := got.front; q != nil; {
					next := q.next
					got.remove(q)
					q = next
				}
				for q := hostGot.front; q != nil; {
					next := q.next
					hostGot.remove(q)
					q = next
				}
				ref.Init()
				hostRef.Init()
				clear(elems)
				clear(hostElems)
			}
			if got.n != ref.Len() {
				t.Fatalf("length %d, reference %d", got.n, ref.Len())
			}
			var fwd, back, want, wantBack []int
			for q := got.front; q != nil; q = q.next {
				fwd = append(fwd, q.session)
			}
			for q := got.back; q != nil; q = q.prev {
				back = append(back, q.session)
			}
			for el := ref.Front(); el != nil; el = el.Next() {
				want = append(want, el.Value.(int))
			}
			for el := ref.Back(); el != nil; el = el.Prev() {
				wantBack = append(wantBack, el.Value.(int))
			}
			if !slices.Equal(fwd, want) || !slices.Equal(back, wantBack) {
				t.Fatalf("pin order %v (back %v), reference %v (back %v)", fwd, back, want, wantBack)
			}
			var hostFwd, hostWant []int
			for q := hostGot.back; q != nil; q = q.prev {
				hostFwd = append(hostFwd, q.session)
			}
			for el := hostRef.Back(); el != nil; el = el.Prev() {
				hostWant = append(hostWant, el.Value.(int))
			}
			if !slices.Equal(hostFwd, hostWant) {
				t.Fatalf("mirror drop order %v, reference %v", hostFwd, hostWant)
			}
		}
	})
}

// TestHottestPrefixesFollowsPinOrder runs the manager's own pin
// transitions (insert, hit, adopt, supersede, budget eviction, migration
// stake and completion, crash) and checks HottestPrefixes against a walk
// of the recency list and the pin set.
func TestHottestPrefixesFollowsPinOrder(t *testing.T) {
	cfg := fullConfig()
	cfg.PrefixPages = 24
	m, _ := quietManager(t, cfg)
	check := func(step string) {
		t.Helper()
		var walk []PrefixInfo
		n := 0
		for p := m.pinOrder.front; p != nil; p = p.next {
			n++
			if m.pins[p.session] != p {
				t.Fatalf("%s: pin %d in the order is not the session's pin", step, p.session)
			}
			if !p.migrating {
				walk = append(walk, PrefixInfo{Session: p.session, Tokens: p.tokens, Pages: p.pages})
			}
		}
		if n != len(m.pins) || n != m.pinOrder.n {
			t.Fatalf("%s: %d pins in the order, %d in the set, length %d", step, n, len(m.pins), m.pinOrder.n)
		}
		if got := m.HottestPrefixes(nil, 0); !slices.Equal(got, walk) {
			t.Fatalf("%s: HottestPrefixes %v, walk %v", step, got, walk)
		}
	}
	id := 0
	finish := func(session, tokens int) {
		id++
		r := newReq(id, tokens, 1)
		r.PrefilledTokens = tokens
		if err := m.AllocateWithPrefix(r, tokens, session); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAsPrefix(r, session, 0)
	}
	for s := 1; s <= 5; s++ {
		finish(s, 64) // 4 pages each, 20 of the 24-page budget
		check("insert")
	}
	m.TakePrefix(2)
	check("hit")
	finish(3, 96) // adopts session 3's pin and pins the longer context
	check("adopt")
	finish(7, 160) // overflows the budget: LRU pins evict
	check("evict")
	if _, _, ok := m.BeginMigrateOut(2); ok {
		check("stake")
		m.CompleteMigrateOut(2)
		check("migrate")
	}
	m.Crash()
	check("crash")
}
