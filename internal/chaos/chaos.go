// Package chaos defines the fault-injection plan the cluster simulator
// schedules on its virtual clock: replica crashes, slow-node brownouts,
// and interconnect link flaps, plus the pin-redundancy factor the
// cluster's recovery machinery consumes. The package is pure data + deterministic plan generation —
// all wiring lives in internal/cluster, so a zero-value or nil Spec
// leaves every subsystem byte-identical to a fault-free run.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/simclock"
)

// FaultKind classifies one injected fault.
type FaultKind int

// Fault kinds.
const (
	// Crash kills a replica instantly: in-flight requests fail, pins and
	// host mirrors vanish, its fabric endpoint goes dark. Recovery is
	// gateway re-routing with capped retry + backoff, mirror-driven pin
	// re-replication, and (under autoscaling) warm-up-path backfill.
	Crash FaultKind = iota
	// Brownout multiplies a replica's iteration cost by Factor for
	// Duration — the slow-node model.
	Brownout
	// LinkFlap takes the interconnect pair (From, To) down for Duration in
	// both directions: in-flight transfers crossing it abort and new
	// migrations are declined until it recovers.
	LinkFlap

	numKinds
)

var kindNames = [numKinds]string{"crash", "brownout", "link-flap"}

func (k FaultKind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one scheduled fault.
type Fault struct {
	Kind FaultKind
	// At is the virtual-clock injection instant.
	At simclock.Time
	// Replica targets Crash and Brownout.
	Replica int
	// Duration bounds Brownout and LinkFlap windows.
	Duration time.Duration
	// Factor is the Brownout iteration-cost multiplier (> 1 slows).
	Factor float64
	// From and To name the LinkFlap pair (flapped in both directions).
	From, To int
}

// Spec is the fault plan plus pin redundancy. The zero value (and a nil
// pointer) injects nothing and must leave a run byte-identical to one that
// never saw the spec. Normalize validates it.
type Spec struct {
	// Faults is the scripted plan.
	Faults []Fault

	// RandomFaults asks for this many additional seeded-random faults
	// drawn over [0, Horizon); Seed keys the draw.
	RandomFaults int
	Seed         int64
	Horizon      simclock.Time

	// Redundancy is the pin-redundancy factor K: the cluster keeps host-
	// tier mirrors of every pinned session prefix on K-1 backup replicas
	// and re-pins from them after a crash. 0 or 1 disables redundancy.
	Redundancy int
}

// Active reports whether the spec asks for any behavior change at all.
// Inactive specs (nil, or zero faults and no redundancy) must be treated
// exactly like no spec — that is the zero-fault byte-identity contract.
func (s *Spec) Active() bool {
	if s == nil {
		return false
	}
	return len(s.Faults) > 0 || s.RandomFaults > 0 || s.Redundancy > 1
}

// Normalize validates the plan against a replica count. The spec has no
// defaults to fill, so a valid spec comes back unchanged.
func (s Spec) Normalize(replicas int) (Spec, error) {
	for i, f := range s.Faults {
		if f.At < 0 {
			return s, fmt.Errorf("chaos: fault %d at negative time %v", i, f.At)
		}
		switch f.Kind {
		case Crash:
			if f.Replica < 0 || f.Replica >= replicas {
				return s, fmt.Errorf("chaos: fault %d crashes replica %d outside pool of %d",
					i, f.Replica, replicas)
			}
		case Brownout:
			if f.Replica < 0 || f.Replica >= replicas {
				return s, fmt.Errorf("chaos: fault %d browns out replica %d outside pool of %d",
					i, f.Replica, replicas)
			}
			if f.Factor <= 1 {
				return s, fmt.Errorf("chaos: fault %d brownout factor %v must exceed 1", i, f.Factor)
			}
			if f.Duration <= 0 {
				return s, fmt.Errorf("chaos: fault %d brownout needs a positive duration", i)
			}
		case LinkFlap:
			if f.From < 0 || f.From >= replicas || f.To < 0 || f.To >= replicas || f.From == f.To {
				return s, fmt.Errorf("chaos: fault %d flaps invalid link %d-%d in pool of %d",
					i, f.From, f.To, replicas)
			}
			if f.Duration <= 0 {
				return s, fmt.Errorf("chaos: fault %d link flap needs a positive duration", i)
			}
		default:
			return s, fmt.Errorf("chaos: fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	switch {
	case s.RandomFaults > 0 && s.Horizon <= 0:
		return s, fmt.Errorf("chaos: %d random faults need a positive horizon", s.RandomFaults)
	case s.RandomFaults > 0 && replicas < 2:
		return s, fmt.Errorf("chaos: random faults need at least 2 replicas")
	case s.Redundancy < 0:
		return s, fmt.Errorf("chaos: negative redundancy %d", s.Redundancy)
	}
	return s, nil
}

// Resolved returns the full fault plan — scripted faults plus the seeded-
// random ones — sorted by injection time (ties by kind, then replica).
// The draw is a pure function of (Seed, RandomFaults, Horizon, replicas),
// so identical specs resolve to identical plans on every run.
func (s *Spec) Resolved(replicas int) []Fault {
	if s == nil {
		return nil
	}
	out := append([]Fault(nil), s.Faults...)
	if s.RandomFaults > 0 && replicas >= 2 {
		rng := rand.New(rand.NewSource(s.Seed))
		for i := 0; i < s.RandomFaults; i++ {
			f := Fault{At: simclock.Time(rng.Int63n(int64(s.Horizon)))}
			switch rng.Intn(3) {
			case 0:
				// At most one random crash: the pool must keep survivors
				// for retries to land on.
				if hasCrash(out) {
					f.Kind = Brownout
					f.Replica = rng.Intn(replicas)
					f.Factor = 2 + 2*rng.Float64()
					f.Duration = time.Duration(1+rng.Intn(5)) * time.Second
					break
				}
				f.Kind = Crash
				f.Replica = rng.Intn(replicas)
			case 1:
				f.Kind = Brownout
				f.Replica = rng.Intn(replicas)
				f.Factor = 2 + 2*rng.Float64()
				f.Duration = time.Duration(1+rng.Intn(5)) * time.Second
			case 2:
				f.Kind = LinkFlap
				f.From = rng.Intn(replicas)
				f.To = (f.From + 1 + rng.Intn(replicas-1)) % replicas
				f.Duration = time.Duration(1+rng.Intn(5)) * time.Second
			}
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}

func hasCrash(fs []Fault) bool {
	for _, f := range fs {
		if f.Kind == Crash {
			return true
		}
	}
	return false
}
