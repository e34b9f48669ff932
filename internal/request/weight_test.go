package request

import (
	"testing"
	"testing/quick"
)

func TestTokenWeightBands(t *testing.T) {
	if !(0 <= Tau1 && Tau1 < Tau2) {
		t.Fatalf("thresholds (%v, %v) must satisfy 0 <= tau1 < tau2", Tau1, Tau2)
	}
	L := 1000 // thresholds at 100 and 200 tokens
	if w := TokenWeight(50, L); w != 1 {
		t.Errorf("below tau1: w = %v", w)
	}
	if w := TokenWeight(100, L); w != 1 {
		t.Errorf("at tau1: w = %v", w)
	}
	if w := TokenWeight(150, L); w != 0.5 {
		t.Errorf("midband: w = %v", w)
	}
	if w := TokenWeight(200, L); w != 0 {
		t.Errorf("at tau2: w = %v", w)
	}
	if w := TokenWeight(500, L); w != 0 {
		t.Errorf("beyond tau2: w = %v", w)
	}
}

// Property: the weight function is monotone non-increasing in buffer
// occupancy and stays within [0, 1], so a request's Effective never
// exceeds its generated tokens.
func TestPropertyWeightMonotone(t *testing.T) {
	f := func(b1, b2 uint16, lenRaw uint16) bool {
		L := int(lenRaw%2000) + 10
		lo, hi := int(b1), int(b2)
		if lo > hi {
			lo, hi = hi, lo
		}
		w1, w2 := TokenWeight(lo, L), TokenWeight(hi, L)
		return w1 >= w2 && w1 <= 1 && w2 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
