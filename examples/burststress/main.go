// Burststress: the paper's long-term trace experiment in miniature
// (Figures 14-15). A bursty BurstGPT-like trace stresses the deployment;
// we sample the queued and running request counts over time for every
// system and print the temporal comparison.
//
//	go run ./examples/burststress
package main

import (
	"fmt"
	"log"
	"time"

	"repro/tokenflow"
)

func main() {
	workload := tokenflow.BurstGPTSpikesWorkload(240, 3, 60, 400, 20, 14)
	fmt.Printf("trace: %d requests over 240s\n\n", len(workload))

	type series struct {
		system  tokenflow.System
		samples []tokenflow.Sample
		peakQ   int
	}
	var all []series
	for _, system := range tokenflow.Systems() {
		res, err := tokenflow.Run(tokenflow.Config{
			System:      system,
			GPU:         "H200",
			Model:       "Llama3-8B",
			MemFraction: 0.3,
			SampleEvery: 5 * time.Second,
		}, workload)
		if err != nil {
			log.Fatal(err)
		}
		s := series{system: system, samples: res.Samples}
		for _, p := range res.Samples {
			if p.Queued > s.peakQ {
				s.peakQ = p.Queued
			}
		}
		all = append(all, s)
		fmt.Printf("%-15s peak queued %3d   mean TTFT %6.2fs   eff-thpt %7.1f tok/s\n",
			system, s.peakQ, res.MeanTTFT.Seconds(), res.EffectiveThroughput)
	}

	fmt.Println("\nqueued requests over time:")
	fmt.Printf("%6s", "t(s)")
	for _, s := range all {
		fmt.Printf(" %15s", s.system)
	}
	fmt.Println()
	maxLen := 0
	for _, s := range all {
		if len(s.samples) > maxLen {
			maxLen = len(s.samples)
		}
	}
	step := maxLen / 16
	if step < 1 {
		step = 1
	}
	for i := 0; i < maxLen; i += step {
		printed := false
		for _, s := range all {
			if i < len(s.samples) {
				if !printed {
					fmt.Printf("%6.0f", s.samples[i].At.Seconds())
					printed = true
				}
				fmt.Printf(" %15d", s.samples[i].Queued)
			} else {
				if !printed {
					fmt.Printf("%6s", "-")
					printed = true
				}
				fmt.Printf(" %15d", 0)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nTokenFlow should hold the queued peak below the FCFS baselines during spikes (Figure 14).")
}
