// Quickstart: serve a flash crowd with TokenFlow and compare it with the
// SGLang baseline on the simulated H200.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/tokenflow"
)

func main() {
	// 300 requests arrive at once: ~512-token prompts, ~4096-token
	// responses, clients reading at 20 tokens/s.
	workload := tokenflow.BurstWorkload(300, 512, 4096, 20, 42)

	for _, system := range []tokenflow.System{tokenflow.SystemSGLang, tokenflow.SystemTokenFlow} {
		res, err := tokenflow.Run(tokenflow.Config{
			System: system,
			GPU:    "H200",
			Model:  "Llama3-8B",
			// The paper's H200 experiments start with mem-frac 0.3 (§7.3).
			MemFraction: 0.3,
		}, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s finished %d/%d  eff-thpt %7.1f tok/s  thpt %7.1f tok/s  mean TTFT %7.2fs  P99 TTFT %7.2fs\n",
			res.System, res.Finished, res.N,
			res.EffectiveThroughput, res.Throughput,
			res.MeanTTFT.Seconds(), res.P99TTFT.Seconds())
	}
	fmt.Println("\nTokenFlow should show several times higher effective throughput and far lower TTFT under this burst.")
}
