// Chatbot: a customer-support deployment with heterogeneous readers.
// Requests arrive in a BurstGPT-like bursty process; each client reads at
// a human speed drawn from the paper's Figure 1 table (language and age
// dependent), and the operator tracks streaming QoS per reader class.
//
//	go run ./examples/chatbot
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/tokenflow"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Human reading speeds by audience segment (tokens/s), after the
	// paper's Figure 1: these are raw comprehension rates; interactive
	// products typically target 2-3x for skimming, so we scale by 2.5.
	segments := []struct {
		name string
		rate float64
	}{
		{"teen", 2.5 * 4.2},
		{"adult", 2.5 * 5.6},
		{"senior", 2.5 * 3.9},
	}

	base := tokenflow.BurstGPTWorkload(120, 4, 0, 7)
	var workload tokenflow.Workload
	segOf := make([]string, len(base))
	for i, r := range base {
		seg := segments[rng.Intn(len(segments))]
		r.Rate = seg.rate
		segOf[i] = seg.name
		workload = append(workload, r)
	}

	res, err := tokenflow.Run(tokenflow.Config{
		System:      tokenflow.SystemTokenFlow,
		GPU:         "A6000",
		Model:       "Qwen2.5-7B",
		MemFraction: 0.9,
	}, workload)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served %d/%d requests, effective throughput %.1f tok/s, QoS %.1f\n\n",
		res.Finished, res.N, res.EffectiveThroughput, res.QoS)
	type agg struct {
		n        int
		ttft     float64
		rebuffer float64
	}
	bySeg := map[string]*agg{}
	for i, r := range res.Requests {
		a := bySeg[segOf[i]]
		if a == nil {
			a = &agg{}
			bySeg[segOf[i]] = a
		}
		a.n++
		a.ttft += r.TTFT.Seconds()
		a.rebuffer += r.Rebuffer.Seconds()
	}
	fmt.Println("per-segment experience:")
	for _, seg := range segments {
		a := bySeg[seg.name]
		if a == nil || a.n == 0 {
			continue
		}
		fmt.Printf("  %-7s %3d readers  mean TTFT %6.2fs  mean rebuffer %6.2fs\n",
			seg.name, a.n, a.ttft/float64(a.n), a.rebuffer/float64(a.n))
	}
}
