package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/simclock"
)

// SessionConfig parameterizes the multi-turn session workload generator:
// chat-style conversations of several turns, where each turn's prompt is
// the previous turn's full context (prompt + response) plus a short new
// user message, separated by client think time. The growing shared prefix
// is what KV-affinity routing exploits: a replica that served turn t-1
// still holds most of turn t's prompt in its cache.
type SessionConfig struct {
	// Sessions is the number of conversations.
	Sessions int

	// Duration is the window over which sessions start.
	Duration simclock.Time

	// SpikeEvery injects flash crowds of session starts: every SpikeEvery,
	// a cohort of sessions opens simultaneously (the request-burst
	// regime), with spikeFraction of all sessions assigned to cohorts.
	// Zero disables spikes and spreads all starts uniformly.
	SpikeEvery simclock.Time

	// RampUp draws non-spike session starts with density growing linearly
	// over the window (few conversations early, many late) instead of
	// uniformly — the warm-up-stalled regime predictive autoscaling
	// targets: a forecastable trend rather than a level shift.
	RampUp bool

	// MinTurns and MaxTurns bound the uniform turns-per-session draw
	// (defaults 3 and 8).
	MinTurns, MaxTurns int

	// FirstPrompt sizes the opening prompt; Followup sizes the new user
	// tokens appended each later turn; Output sizes per-turn responses.
	// All are normal draws clamped to [MinLen, MaxLen]. Defaults: 512±128,
	// 64±16, 256±64 within [16, 8192].
	FirstPromptMean, FirstPromptStd float64
	FollowupMean, FollowupStd       float64
	OutputMean, OutputStd           float64
	MinLen, MaxLen                  int

	// Rates draws one consumption rate per session (a user reads at one
	// speed across their conversation). Nil defaults to FixedRate(20).
	Rates RateDist

	Seed int64
}

// Session workload constants: the share of sessions that open in spike
// cohorts when SpikeEvery > 0, and the mean in seconds of the exponential
// think-time gap between consuming one response and sending the next turn.
const (
	spikeFraction    = 0.5
	thinkMeanSeconds = 10
)

// Normalize fills zero fields with their defaults and validates the
// result: the session count must be positive and the turn bounds must
// satisfy 1 <= MinTurns <= MaxTurns. A zero FirstPromptMean, FollowupMean
// or OutputMean selects its default mean and standard deviation together.
// Arrival-time problems (a negative Duration) surface from
// Workload.Validate on the generated trace, as for every generator.
// Normalizing a normalized config returns it unchanged.
func (c SessionConfig) Normalize() (SessionConfig, error) {
	if c.MinTurns == 0 {
		c.MinTurns = 3
	}
	if c.MaxTurns == 0 {
		c.MaxTurns = 8
	}
	if c.FirstPromptMean == 0 {
		c.FirstPromptMean, c.FirstPromptStd = 512, 128
	}
	if c.FollowupMean == 0 {
		c.FollowupMean, c.FollowupStd = 64, 16
	}
	if c.OutputMean == 0 {
		c.OutputMean, c.OutputStd = 256, 64
	}
	if c.MinLen == 0 {
		c.MinLen = 16
	}
	if c.MaxLen == 0 {
		c.MaxLen = 8192
	}
	if c.Rates == nil {
		c.Rates = FixedRate(20)
	}
	switch {
	case c.Sessions <= 0:
		return c, fmt.Errorf("trace: non-positive session count %d", c.Sessions)
	case c.MinTurns < 1 || c.MaxTurns < c.MinTurns:
		return c, fmt.Errorf("trace: bad turn bounds [%d, %d]", c.MinTurns, c.MaxTurns)
	}
	return c, nil
}

// Sessions generates a multi-turn conversation workload. Items carry
// Session (1-based) and Turn (1-based) tags; within a session, turn t's
// prompt equals turn t-1's prompt + output + a followup message, so
// consecutive turns share a prefix of the full previous context. Turn
// arrivals are spaced by the time the client spends consuming the previous
// response plus an exponential think-time gap. Deterministic per seed. It
// panics with Normalize's error on an invalid config.
func Sessions(name string, cfg SessionConfig) Workload {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Session start times: a spike cohort share plus a uniform background.
	starts := make([]float64, cfg.Sessions)
	nSpike := 0
	var spikeTimes []float64
	if cfg.SpikeEvery > 0 {
		for at := cfg.SpikeEvery; at <= cfg.Duration; at += cfg.SpikeEvery {
			spikeTimes = append(spikeTimes, at.Seconds())
		}
		if len(spikeTimes) > 0 {
			nSpike = int(spikeFraction * float64(cfg.Sessions))
		}
	}
	for i := range starts {
		if i < nSpike {
			starts[i] = spikeTimes[i%len(spikeTimes)]
		} else {
			u := rng.Float64()
			if cfg.RampUp {
				// Inverse-CDF of a linearly growing density: start times
				// concentrate toward the end of the window.
				u = math.Sqrt(u)
			}
			starts[i] = u * cfg.Duration.Seconds()
		}
	}

	sample := func(mean, std float64) int {
		return clampInt(int(rng.NormFloat64()*std+mean), cfg.MinLen, cfg.MaxLen)
	}

	var per []Workload
	for s := 0; s < cfg.Sessions; s++ {
		turns := cfg.MinTurns + rng.Intn(cfg.MaxTurns-cfg.MinTurns+1)
		rate := cfg.Rates.SampleRate(rng)
		t := starts[s]
		prompt := sample(cfg.FirstPromptMean, cfg.FirstPromptStd)
		w := Workload{Name: fmt.Sprintf("%s/s%d", name, s+1)}
		for turn := 1; turn <= turns; turn++ {
			output := sample(cfg.OutputMean, cfg.OutputStd)
			w.Items = append(w.Items, Item{
				Arrival:   simclock.FromSeconds(t),
				PromptLen: prompt,
				OutputLen: output,
				Rate:      rate,
				Session:   s + 1,
				Turn:      turn,
			})
			// Next turn: the client consumes the response, thinks, then
			// sends a short followup on top of the full previous context.
			// If growth hits the MaxLen clamp, the prompt no longer
			// extends the previous context (truncation); the engine's
			// prefix cache detects that and treats it as a miss.
			consume := 0.0
			if rate > 0 {
				consume = float64(output) / rate
			}
			t += consume + rng.ExpFloat64()*thinkMeanSeconds
			prompt = clampInt(prompt+output+sample(cfg.FollowupMean, cfg.FollowupStd),
				cfg.MinLen, cfg.MaxLen)
		}
		per = append(per, w)
	}
	return Merge(name, per...)
}
