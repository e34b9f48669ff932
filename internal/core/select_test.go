package core

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// refSelect is the map-keyed greedy selection plus local search that the
// scheduler ran before its selection became a reused slice indexed by
// candidate position. It returns the selected request IDs, their
// discretionary utility, and the number of swaps that stuck. The
// equality tests below hold selectCandidates to it with local search on;
// localSearch false gives the greedy packing alone.
func refSelect(cands []candidate, budget, slots int, localSearch bool) (map[int]bool, float64, int64) {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.committed != cb.committed {
			return ca.committed
		}
		return ca.utility > cb.utility
	})
	bestSel, bestUtil := refPack(cands, order, budget, slots)
	var swaps int64
	if !localSearch {
		return bestSel, bestUtil, swaps
	}
	for k := 0; k+1 < len(order); k++ {
		if cands[order[k]].committed || cands[order[k+1]].committed {
			continue
		}
		order[k], order[k+1] = order[k+1], order[k]
		sel, util := refPack(cands, order, budget, slots)
		if util > bestUtil {
			bestSel, bestUtil = sel, util
			swaps++
		} else {
			order[k], order[k+1] = order[k+1], order[k]
		}
	}
	return bestSel, bestUtil, swaps
}

func refPack(cands []candidate, order []int, budget, slots int) (map[int]bool, float64) {
	selected := make(map[int]bool, len(order))
	remaining := budget
	left := slots
	util := 0.0
	for _, i := range order {
		c := cands[i]
		if c.committed {
			selected[c.req.ID] = true
			remaining -= c.tokens
			left--
			continue
		}
		if slots > 0 && left <= 0 {
			continue
		}
		if c.tokens <= remaining {
			selected[c.req.ID] = true
			remaining -= c.tokens
			left--
			util += c.utility
		}
	}
	return selected, util
}

// checkAgainstRef runs selectCandidates on s and compares the selected
// set, its utility and the swaps applied with refSelect.
func checkAgainstRef(t *testing.T, s *Scheduler, cands []candidate, budget, slots int) {
	t.Helper()
	want, wantUtil, wantSwaps := refSelect(cands, budget, slots, true)
	swaps0 := s.SwapsApplied
	got, gotUtil := s.selectCandidates(cands, budget, slots)
	if len(got) != len(cands) {
		t.Fatalf("selection has %d entries for %d candidates", len(got), len(cands))
	}
	for i, c := range cands {
		if got[i] != want[c.req.ID] {
			t.Errorf("candidate %d (request %d): selected=%v, reference %v", i, c.req.ID, got[i], want[c.req.ID])
		}
	}
	if gotUtil != wantUtil && !(math.IsNaN(gotUtil) && math.IsNaN(wantUtil)) {
		t.Errorf("utility = %v, reference %v", gotUtil, wantUtil)
	}
	if swaps := s.SwapsApplied - swaps0; swaps != wantSwaps {
		t.Errorf("swaps applied = %d, reference %d", swaps, wantSwaps)
	}
}

// cand builds a candidate for request id.
func cand(id int, utility float64, tokens int, committed bool) candidate {
	return candidate{req: request.New(id, 0, 10, 10, 20), utility: utility, tokens: tokens, committed: committed}
}

func TestSelectCandidatesMatchesReference(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name          string
		cands         []candidate
		budget, slots int
	}{
		{"empty", nil, 1000, 0},
		{"greedy blocked by a big head", []candidate{
			cand(1, 5, 900, false), cand(2, 4.9, 500, false), cand(3, 4.8, 500, false),
		}, 1000, 0},
		{"committed consume budget first", []candidate{
			cand(1, 0.1, 900, true), cand(2, 9, 500, false), cand(3, 1, 50, false),
		}, 1000, 0},
		{"committed past the budget", []candidate{
			cand(7, 1, 800, true), cand(3, 2, 800, true), cand(5, 9, 1, false),
		}, 1000, 0},
		{"slot cap", []candidate{
			cand(4, 3, 10, false), cand(9, 2, 10, false), cand(2, 1, 10, false), cand(8, 0.5, 10, true),
		}, 1000, 2},
		{"slot cap taken by committed", []candidate{
			cand(1, 3, 10, true), cand(2, 2, 10, true), cand(3, 9, 10, false),
		}, 1000, 1},
		{"equal utilities keep input order", []candidate{
			cand(10, 1, 400, false), cand(11, 1, 300, false), cand(12, 1, 300, false),
			cand(13, 1, 600, false), cand(14, 1, 100, false),
		}, 1000, 0},
		{"negative budget", []candidate{
			cand(1, 2, 10, true), cand(2, 1, 10, false),
		}, -5, 0},
		{"NaN utility", []candidate{
			cand(1, nan, 100, false), cand(2, 1, 600, false), cand(3, 2, 500, false), cand(4, nan, 400, true),
		}, 1000, 0},
		{"more than one insertion-sort block", func() []candidate {
			var cs []candidate
			for i := 0; i < 45; i++ {
				cs = append(cs, cand(100+i, float64((i*7)%5), 50+(i*37)%400, i%9 == 0))
			}
			return cs
		}(), 4000, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(DefaultConfig())
			checkAgainstRef(t, s, tc.cands, tc.budget, tc.slots)
			// The same scheduler again, now with grown scratch.
			checkAgainstRef(t, s, tc.cands, tc.budget, tc.slots)
		})
	}
}

// decodeCandidates turns fuzz bytes into a selection problem: a header of
// flags, budget and slot cap, then three bytes per candidate (utility,
// tokens, flags). The header's flag byte is ignored: local search is
// always on. Utilities come from a small grid, so ties are common,
// and byte values 250-255 give NaN.
func decodeCandidates(data []byte) (cands []candidate, budget, slots int) {
	if len(data) < 4 {
		return nil, 0, 0
	}
	budget = int(int16(binary.LittleEndian.Uint16(data[1:3])))
	slots = int(data[3] % 8)
	data = data[4:]
	for i := 0; i+3 <= len(data) && len(cands) < 64; i += 3 {
		u := math.NaN()
		if data[i] < 250 {
			u = float64(data[i]%32) / 8
		}
		// IDs run backwards so positions and IDs never coincide.
		cands = append(cands, cand(1000-len(cands), u, int(data[i+1])*8, data[i+2]&1 == 1))
	}
	return cands, budget, slots
}

func FuzzSelectCandidates(f *testing.F) {
	f.Add([]byte{1, 0xe8, 0x03, 0, 40, 112, 0, 39, 62, 0, 38, 62, 0})
	f.Add([]byte{1, 0xe8, 0x03, 2, 8, 1, 0, 8, 1, 0, 8, 1, 1, 8, 1, 0})
	f.Add([]byte{0, 0xe8, 0x03, 0, 1, 112, 1, 72, 62, 0})
	f.Add([]byte{1, 0xff, 0xff, 3, 255, 20, 0, 16, 10, 1, 251, 30, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cands, budget, slots := decodeCandidates(data)
		s := MustNew(DefaultConfig())
		checkAgainstRef(t, s, cands, budget, slots)
		// A smaller problem on the same scheduler reuses the larger scratch.
		checkAgainstRef(t, s, cands[:len(cands)/2], budget, slots)
	})
}

// TestDecideFullPassAllocations pins a warmed full pass to exactly the
// Decision's own two slices: the preemptions and the admissions, each
// sized once.
func TestDecideFullPassAllocations(t *testing.T) {
	cost, err := gpu.NewCostModel(gpu.H200, model.Llama3_8B)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(DefaultConfig())
	v := &sched.View{
		Now: simclock.FromSeconds(5), TotalTokens: 4000,
		Cost: cost, AvgIterTime: 20 * time.Millisecond,
	}
	// Fat-buffer streams fill the pool; waiting newcomers only fit by
	// preempting some of them. Short outputs keep the mean full context
	// near 1000 tokens, so Γ covers the 180 tok/s of demand (no fallback)
	// and W_static = 9 leaves the working set room to admit.
	used := 0
	for i := 0; i < 5; i++ {
		r := streamReq(1+i, 20, 300+40*i, 800)
		v.Running = append(v.Running, r)
		used += r.PromptLen + r.Generated
	}
	v.FreeTokens = v.TotalTokens - used
	for i := 0; i < 4; i++ {
		v.Waiting = append(v.Waiting, request.New(100+i, simclock.FromSeconds(2), 500, 512, 20))
	}
	decide := func() sched.Decision {
		s.ForceFullPass()
		return s.Decide(v)
	}
	d := decide() // warm the scratch
	if s.FullReschedules != 1 {
		t.Fatalf("expected a full pass: full=%d light=%d fallback=%d", s.FullReschedules, s.LightPasses, s.FallbackPasses)
	}
	if len(d.Preempt) == 0 || len(d.Admit) == 0 {
		t.Fatalf("the view should both preempt and admit: %d preempt, %d admit", len(d.Preempt), len(d.Admit))
	}
	allocs := testing.AllocsPerRun(100, func() { d = decide() })
	if allocs != 0 {
		t.Errorf("warmed full pass allocated %v times, want 0", allocs)
	}
}
