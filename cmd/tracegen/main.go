// Command tracegen emits generated workload traces as CSV
// (arrival_s,prompt_tokens,output_tokens,rate_tok_s,session,turn) for
// external tooling.
//
//	tracegen -kind burstgpt -duration 300 -lambda 2 > trace.csv
//
// Bad flags exit with status 2 and one "tracegen: ..." line on stderr.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/simclock"
	"repro/internal/trace"
)

// checkFlags rejects flag values the generators would panic on or turn
// into a silently empty or malformed trace. Each kind is checked only on
// the flags it reads.
func checkFlags(kind string, n int, lambda, duration, rate float64) error {
	var count, arrivals, window bool
	switch kind {
	case "burst":
		count = true
	case "poisson", "burstgpt", "industrial":
		arrivals, window = true, true
	case "sessions":
		count, window = true, true
	default:
		return fmt.Errorf("-kind %q: unknown trace kind (have burst, poisson, burstgpt, industrial, sessions)", kind)
	}
	switch {
	case count && n < 1:
		return fmt.Errorf("-n %d: the %s trace needs at least 1 request or session", n, kind)
	case arrivals && !(lambda > 0 && !math.IsInf(lambda, 1)):
		return fmt.Errorf("-lambda %v: the %s trace needs a positive, finite arrival rate", lambda, kind)
	case window && !(duration > 0 && !math.IsInf(duration, 1)):
		return fmt.Errorf("-duration %v: the %s trace needs a positive, finite window", duration, kind)
	case !(rate >= 0 && !math.IsInf(rate, 1)):
		return fmt.Errorf("-rate %v: the consumption rate must be finite and not negative (0 = instant)", rate)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		kind     = flag.String("kind", "burstgpt", "burst | poisson | burstgpt | industrial | sessions")
		n        = flag.Int("n", 100, "burst size / session count")
		lambda   = flag.Float64("lambda", 2, "arrival rate (req/s)")
		duration = flag.Float64("duration", 60, "trace duration (s)")
		rate     = flag.Float64("rate", 20, "client consumption rate (tok/s); 0 = instant")
		seed     = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := checkFlags(*kind, *n, *lambda, *duration, *rate); err != nil {
		return err
	}

	lengths := trace.ShareGPTLengths()
	rates := trace.FixedRate(*rate)
	var w trace.Workload
	switch *kind {
	case "burst":
		w = trace.Burst("burst", *n, 0, lengths, rates, *seed)
	case "poisson":
		w = trace.Poisson("poisson", *lambda, simclock.FromSeconds(*duration), lengths, rates, *seed)
	case "burstgpt":
		w = trace.BurstGPT("burstgpt", trace.BurstGPTConfig{
			Duration: simclock.FromSeconds(*duration),
			BaseRate: *lambda,
			Lengths:  lengths,
			Rates:    rates,
			Seed:     *seed,
		})
	case "industrial":
		w = trace.Industrial("industrial", simclock.FromSeconds(*duration), *lambda, rates, *seed)
	case "sessions":
		w = trace.Sessions("sessions", trace.SessionConfig{
			Sessions: *n,
			Duration: simclock.FromSeconds(*duration),
			Rates:    rates,
			Seed:     *seed,
		})
	}
	if err := w.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, "arrival_s,prompt_tokens,output_tokens,rate_tok_s,session,turn")
	for _, it := range w.Items {
		fmt.Printf("%.6f,%d,%d,%.2f,%d,%d\n",
			it.Arrival.Seconds(), it.PromptLen, it.OutputLen, it.Rate, it.Session, it.Turn)
	}
	fmt.Fprintf(os.Stderr, "wrote %d requests (%s)\n", w.Len(), *kind)
	return nil
}
