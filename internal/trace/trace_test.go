package trace

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func TestBurstAllArriveTogether(t *testing.T) {
	w := Burst("b", 50, simclock.FromSeconds(2), FixedLengths{512, 1024}, FixedRate(20), 1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 50 {
		t.Fatalf("len = %d", w.Len())
	}
	for _, it := range w.Items {
		if it.Arrival != simclock.FromSeconds(2) {
			t.Fatalf("arrival = %v", it.Arrival)
		}
		if it.PromptLen != 512 || it.OutputLen != 1024 || it.Rate != 20 {
			t.Fatalf("item = %+v", it)
		}
	}
}

func TestBurstDeterministic(t *testing.T) {
	a := Burst("a", 30, 0, ShareGPTLengths(), UniformRate{10, 30}, 42)
	b := Burst("a", 30, 0, ShareGPTLengths(), UniformRate{10, 30}, 42)
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatal("same seed should reproduce identical workloads")
		}
	}
	c := Burst("a", 30, 0, ShareGPTLengths(), UniformRate{10, 30}, 43)
	same := true
	for i := range a.Items {
		if a.Items[i] != c.Items[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPoissonRate(t *testing.T) {
	lambda := 5.0
	dur := simclock.FromSeconds(200)
	w := Poisson("p", lambda, dur, FixedLengths{64, 64}, FixedRate(10), 7)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	got := float64(w.Len()) / dur.Seconds()
	if got < 4 || got > 6 {
		t.Errorf("empirical rate = %.2f, want ~5", got)
	}
}

func TestPoissonArrivalsSorted(t *testing.T) {
	w := Poisson("p", 10, simclock.FromSeconds(30), ShareGPTLengths(), FixedRate(10), 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero lambda should panic")
		}
	}()
	Poisson("p", 0, simclock.FromSeconds(1), FixedLengths{1, 1}, FixedRate(1), 1)
}

// TestGeneratorsRejectNaNRate: a NaN or infinite arrival rate panics at
// once instead of adding gaps that never pass the window's end.
func TestGeneratorsRejectNaNRate(t *testing.T) {
	window := simclock.FromSeconds(1)
	lengths, rates := FixedLengths{1, 1}, FixedRate(1)
	for _, c := range []struct {
		name string
		gen  func()
	}{
		{"poisson-NaN", func() { Poisson("p", math.NaN(), window, lengths, rates, 1) }},
		{"poisson-Inf", func() { Poisson("p", math.Inf(1), window, lengths, rates, 1) }},
		{"burstgpt-NaN", func() {
			BurstGPT("b", BurstGPTConfig{Duration: window, BaseRate: math.NaN(), Lengths: lengths, Rates: rates})
		}},
		{"industrial-NaN", func() { Industrial("i", window, math.NaN(), rates, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("a NaN or infinite rate should panic")
				}
			}()
			c.gen()
		})
	}
}

func TestBurstGPTBurstierThanPoisson(t *testing.T) {
	dur := simclock.FromSeconds(600)
	bg := BurstGPT("bg", BurstGPTConfig{
		Duration: dur, BaseRate: 2, GammaShape: 0.3,
		Lengths: FixedLengths{64, 64}, Rates: FixedRate(10), Seed: 11,
	})
	po := Poisson("po", 2, dur, FixedLengths{64, 64}, FixedRate(10), 11)
	if err := bg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empirical rate should still be ~BaseRate.
	rate := float64(bg.Len()) / dur.Seconds()
	if rate < 1.2 || rate > 2.8 {
		t.Errorf("BurstGPT empirical rate = %.2f, want ~2", rate)
	}
	// Burstiness: coefficient of variation of inter-arrivals should exceed
	// Poisson's (CV=1).
	cvBG := interArrivalCV(bg)
	cvPO := interArrivalCV(po)
	if cvBG <= cvPO {
		t.Errorf("BurstGPT CV %.2f should exceed Poisson CV %.2f", cvBG, cvPO)
	}
}

func TestBurstGPTSpikes(t *testing.T) {
	dur := simclock.FromSeconds(100)
	w := BurstGPT("bg", BurstGPTConfig{
		Duration: dur, BaseRate: 1,
		SpikeEvery: simclock.FromSeconds(50), SpikeSize: 40,
		Lengths: FixedLengths{64, 64}, Rates: FixedRate(10), Seed: 5,
	})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two spikes of 40 on top of ~100 background arrivals.
	spike := 0
	for _, it := range w.Items {
		if it.Arrival == simclock.FromSeconds(50) || it.Arrival == simclock.FromSeconds(100) {
			spike++
		}
	}
	if spike < 80 {
		t.Errorf("spike arrivals = %d, want >= 80", spike)
	}
}

func interArrivalCV(w Workload) float64 {
	var gaps []float64
	for i := 1; i < len(w.Items); i++ {
		gaps = append(gaps, (w.Items[i].Arrival - w.Items[i-1].Arrival).Seconds())
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	var variance float64
	for _, g := range gaps {
		variance += (g - mean) * (g - mean)
	}
	variance /= float64(len(gaps))
	if mean == 0 {
		return 0
	}
	return math.Sqrt(variance) / mean
}

func TestIndustrialShape(t *testing.T) {
	w := Industrial("ind", simclock.FromSeconds(600), 4, FixedRate(15), 9)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s := w.Summarize()
	if s.Count < 500 {
		t.Fatalf("industrial trace too small: %d", s.Count)
	}
	// Bimodal prompts: p99 should dwarf p50.
	if s.P99Prompt < 3*s.P50Prompt {
		t.Errorf("expected long-tail prompts: p50=%d p99=%d", s.P50Prompt, s.P99Prompt)
	}
}

func TestMergeSortsByArrival(t *testing.T) {
	a := Burst("a", 3, simclock.FromSeconds(5), FixedLengths{1, 1}, FixedRate(1), 1)
	b := Burst("b", 3, simclock.FromSeconds(2), FixedLengths{2, 2}, FixedRate(1), 1)
	m := Merge("m", a, b)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Items[0].PromptLen != 2 {
		t.Error("earlier burst should sort first")
	}
	if m.Len() != 6 {
		t.Errorf("merged len = %d", m.Len())
	}
}

func TestValidateRejectsBadItems(t *testing.T) {
	ok := Item{PromptLen: 1, OutputLen: 1, Rate: 20}
	with := func(f func(*Item)) []Item {
		it := ok
		f(&it)
		return []Item{ok, it}
	}
	cases := []struct {
		name  string
		items []Item
		want  string // substring of the error; "" means valid
	}{
		{"valid", with(func(*Item) {}), ""},
		{"instant-consumer", with(func(it *Item) { it.Rate = 0 }), ""},
		{"out-of-order", []Item{{Arrival: simclock.FromSeconds(2), PromptLen: 1, OutputLen: 1},
			{Arrival: simclock.FromSeconds(1), PromptLen: 1, OutputLen: 1}}, "item 1 arrives"},
		{"zero-prompt", with(func(it *Item) { it.PromptLen = 0 }), "item 1 has degenerate lengths"},
		{"nan-rate", with(func(it *Item) { it.Rate = math.NaN() }), "item 1 has consumption rate NaN"},
		{"inf-rate", with(func(it *Item) { it.Rate = math.Inf(1) }), "item 1 has consumption rate +Inf"},
		{"negative-rate", with(func(it *Item) { it.Rate = -3 }), "item 1 has consumption rate -3"},
	}
	for _, c := range cases {
		err := Workload{Name: "w", Items: c.items}.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var w Workload
	if s := w.Summarize(); s.Count != 0 {
		t.Error("empty summary")
	}
	if w.Duration() != 0 || w.TotalPromptTokens() != 0 {
		t.Error("empty workload totals should be zero")
	}
}

func TestSummarizeTotals(t *testing.T) {
	w := Burst("b", 10, 0, FixedLengths{100, 200}, FixedRate(20), 1)
	if w.TotalPromptTokens() != 1000 {
		t.Error("totals wrong")
	}
	s := w.Summarize()
	if s.MeanPrompt != 100 || s.MeanOutput != 200 || s.MeanRate != 20 {
		t.Errorf("summary = %+v", s)
	}
}

func TestNormalLengthsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NormalLengths{PromptMean: 512, PromptStd: 256, OutputMean: 1024, OutputStd: 512, Min: 16, Max: 2048}
	for i := 0; i < 1000; i++ {
		p, o := d.Sample(rng)
		if p < 16 || p > 2048 || o < 16 || o > 2048 {
			t.Fatalf("unclamped sample (%d,%d)", p, o)
		}
	}
}

func TestMixtureRateProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := MixtureRate{Rates: []float64{15, 20}, Weights: []float64{0.4, 0.6}}
	count15 := 0
	n := 10000
	for i := 0; i < n; i++ {
		if m.SampleRate(rng) == 15 {
			count15++
		}
	}
	frac := float64(count15) / float64(n)
	if frac < 0.37 || frac > 0.43 {
		t.Errorf("15 tok/s fraction = %.3f, want ~0.4", frac)
	}
}

func TestMixtureRateEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var empty MixtureRate
	if empty.SampleRate(rng) != 0 {
		t.Error("empty mixture should return 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched mixture should panic")
		}
	}()
	MixtureRate{Rates: []float64{1}, Weights: []float64{1, 2}}.SampleRate(rng)
}

func TestUniformRateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := UniformRate{Lo: 10, Hi: 30}
	for i := 0; i < 1000; i++ {
		r := u.SampleRate(rng)
		if r < 10 || r > 30 {
			t.Fatalf("rate %v out of bounds", r)
		}
	}
}

func TestGammaMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += sampleGamma(rng, 0.4, 2.5) // mean = 1.0
	}
	mean := sum / float64(n)
	if mean < 0.9 || mean > 1.1 {
		t.Errorf("gamma mean = %.3f, want ~1.0", mean)
	}
}

func TestGammaRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	defer func() {
		if recover() == nil {
			t.Error("bad gamma params should panic")
		}
	}()
	sampleGamma(rng, 0, 1)
}

func TestConsumptionTableShape(t *testing.T) {
	rows := ConsumptionTable()
	if len(rows) != len(Languages)*len(AgeGroups) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Reading <= 0 || r.Reading > 8 {
			t.Errorf("%s/%s reading rate %.2f outside Figure 1's 0-8 band", r.Language, r.Age, r.Reading)
		}
		if r.Listening <= 0 || r.Listening > 8 {
			t.Errorf("%s/%s listening rate %.2f outside band", r.Language, r.Age, r.Listening)
		}
		if r.Listening >= r.Reading && r.Age != AgeUnder12 {
			t.Errorf("%s/%s: listening %.2f should be slower than reading %.2f", r.Language, r.Age, r.Listening, r.Reading)
		}
	}
}

func TestReadingPeaksInWorkingAge(t *testing.T) {
	for _, lang := range Languages {
		peak := ReadingRate(lang, Age26to45)
		if ReadingRate(lang, AgeUnder12) >= peak || ReadingRate(lang, Age60plus) >= peak {
			t.Errorf("%s: working-age adults should read fastest", lang)
		}
	}
}

// Property: Burst output always validates and has exactly n items for any
// (n, seed).
func TestPropertyBurstValid(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%100) + 1
		w := Burst("p", n, 0, ShareGPTLengths(), UniformRate{5, 40}, seed)
		return w.Len() == n && w.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: merged workloads validate and preserve item count.
func TestPropertyMergeValid(t *testing.T) {
	f := func(seed int64) bool {
		a := Poisson("a", 3, simclock.FromSeconds(20), ShareGPTLengths(), FixedRate(10), seed)
		b := Burst("b", 10, simclock.FromSeconds(10), FixedLengths{64, 64}, FixedRate(10), seed)
		m := Merge("m", a, b)
		return m.Validate() == nil && m.Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMergeMatchesStableSort holds the k-way Merge to the stable sort of
// the inputs' concatenation on random inputs with many equal arrivals,
// some of them unsorted, and checks that it leaves the inputs alone.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		ws := make([]Workload, rng.Intn(8))
		var want, before []Item
		id := 0
		for i := range ws {
			items := make([]Item, rng.Intn(12))
			for k := range items {
				items[k] = Item{Arrival: simclock.Time(rng.Intn(6)), PromptLen: id}
				id++
			}
			if rng.Intn(3) > 0 {
				slices.SortStableFunc(items, func(a, b Item) int { return cmp.Compare(a.Arrival, b.Arrival) })
			}
			ws[i].Items = items
			want = append(want, items...)
		}
		before = slices.Clone(want)
		slices.SortStableFunc(want, func(a, b Item) int { return cmp.Compare(a.Arrival, b.Arrival) })
		got := Merge("m", ws...)
		if !slices.Equal(got.Items, want) {
			t.Fatalf("iteration %d: merge %v, want %v", iter, got.Items, want)
		}
		var after []Item
		for _, w := range ws {
			after = append(after, w.Items...)
		}
		if !slices.Equal(after, before) {
			t.Fatalf("iteration %d: merge modified its inputs", iter)
		}
	}
}
