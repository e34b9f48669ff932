package chaos

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestActive(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want bool
	}{
		{"nil", nil, false},
		{"zero", &Spec{}, false},
		{"redundancy-1-is-off", &Spec{Redundancy: 1}, false},
		{"seed-and-horizon-alone-inactive", &Spec{Seed: 5, Horizon: simclock.FromSeconds(10)}, false},
		{"scripted-fault", &Spec{Faults: []Fault{{Kind: Crash, Replica: 0}}}, true},
		{"random-faults", &Spec{RandomFaults: 1, Horizon: simclock.FromSeconds(10)}, true},
		{"redundancy-2", &Spec{Redundancy: 2}, true},
	}
	for _, c := range cases {
		if got := c.spec.Active(); got != c.want {
			t.Errorf("%s: Active() = %v, want %v", c.name, got, c.want)
		}
	}
}

// checkNormalize runs Normalize on spec and, when want is non-nil, checks
// the result against it and that normalizing twice changes nothing. A nil
// want means Normalize must fail.
func checkNormalize(t *testing.T, name string, spec Spec, replicas int, want *Spec) {
	t.Helper()
	got, err := spec.Normalize(replicas)
	if want == nil {
		if err == nil {
			t.Errorf("%s: Normalize(%d) succeeded, want an error", name, replicas)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: Normalize(%d) = %v", name, replicas, err)
		return
	}
	if !reflect.DeepEqual(got, *want) {
		t.Errorf("%s: Normalize(%d) = %+v, want %+v", name, replicas, got, *want)
	}
	if again, err := got.Normalize(replicas); err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("%s: normalizing twice = %+v, %v; want %+v", name, again, err, got)
	}
}

// TestValidate: Normalize checks the fault plan against the pool; a valid
// plan comes back unchanged.
func TestValidate(t *testing.T) {
	flap := func(from, to int, d time.Duration) Fault {
		return Fault{Kind: LinkFlap, From: from, To: to, Duration: d}
	}
	// ok marks a plan Normalize must accept.
	ok := func(s Spec) *Spec { return &s }
	crash := Spec{Faults: []Fault{{Kind: Crash, At: 1, Replica: 2}}}
	brownout := Spec{Faults: []Fault{{Kind: Brownout, Replica: 0, Factor: 2, Duration: time.Second}}}
	flapOK := Spec{Faults: []Fault{flap(0, 1, time.Second)}}
	random := Spec{RandomFaults: 2, Horizon: simclock.FromSeconds(10)}
	cases := []struct {
		name     string
		spec     Spec
		replicas int
		want     *Spec // nil: Normalize must fail
	}{
		{"zero", Spec{}, 1, ok(Spec{})},
		{"crash-ok", crash, 3, ok(crash)},
		{"crash-out-of-pool", Spec{Faults: []Fault{{Kind: Crash, Replica: 3}}}, 3, nil},
		{"negative-time", Spec{Faults: []Fault{{Kind: Crash, At: -1}}}, 3, nil},
		{"brownout-ok", brownout, 1, ok(brownout)},
		{"brownout-factor-1", Spec{Faults: []Fault{{Kind: Brownout, Factor: 1, Duration: time.Second}}}, 1, nil},
		{"brownout-no-duration", Spec{Faults: []Fault{{Kind: Brownout, Factor: 2}}}, 1, nil},
		{"flap-ok", flapOK, 2, ok(flapOK)},
		{"flap-self-link", Spec{Faults: []Fault{flap(1, 1, time.Second)}}, 3, nil},
		{"flap-out-of-pool", Spec{Faults: []Fault{flap(0, 2, time.Second)}}, 2, nil},
		{"flap-no-duration", Spec{Faults: []Fault{flap(0, 1, 0)}}, 2, nil},
		{"unknown-kind", Spec{Faults: []Fault{{Kind: numKinds}}}, 2, nil},
		{"random-needs-horizon", Spec{RandomFaults: 2}, 4, nil},
		{"random-needs-survivors", random, 1, nil},
		{"random-ok", random, 2, ok(random)},
		{"negative-redundancy", Spec{Redundancy: -1}, 2, nil},
	}
	for _, c := range cases {
		checkNormalize(t, c.name, c.spec, c.replicas, c.want)
	}
}

// TestDefaults: the spec has no defaults to fill — the recovery tuning is
// fixed in the cluster — so Normalize returns every valid spec unchanged,
// the zero spec included.
func TestDefaults(t *testing.T) {
	checkNormalize(t, "zero-stays-zero", Spec{}, 1, &Spec{})
	set := Spec{RandomFaults: 3, Seed: 9, Horizon: simclock.FromSeconds(30), Redundancy: 2}
	checkNormalize(t, "set-fields-stay", set, 4, &set)
}

// TestResolvedDeterministic pins the random-plan contract: the draw is a
// pure function of (Seed, RandomFaults, Horizon, replicas), and every
// resolved fault is itself valid for the pool.
func TestResolvedDeterministic(t *testing.T) {
	spec := func() *Spec {
		return &Spec{
			Faults:       []Fault{{Kind: Crash, At: simclock.FromSeconds(8), Replica: 1}},
			RandomFaults: 12,
			Seed:         42,
			Horizon:      simclock.FromSeconds(60),
		}
	}
	const replicas = 4
	a, b := spec().Resolved(replicas), spec().Resolved(replicas)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs resolved to different plans")
	}
	if want := 1 + 12; len(a) != want {
		t.Fatalf("resolved %d faults, want %d", len(a), want)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Error("resolved plan not sorted by injection time")
	}
	// The resolved plan must pass its own validation — the generator may
	// not draw faults the scripted path would reject.
	if _, err := (Spec{Faults: a}).Normalize(replicas); err != nil {
		t.Errorf("resolved plan fails validation: %v", err)
	}
	// At most one crash in the whole plan: the pool must keep survivors
	// for retries to land on.
	crashes := 0
	for _, f := range a {
		if f.Kind == Crash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Errorf("resolved plan has %d crashes, want exactly the scripted 1", crashes)
	}

	other := spec()
	other.Seed = 43
	if reflect.DeepEqual(a, other.Resolved(replicas)) {
		t.Error("different seeds resolved to identical plans")
	}
}

// TestResolvedLeavesSpec pins that Resolved never mutates the scripted
// plan it was given — the cluster resolves once per run and the spec may
// be shared across cells.
func TestResolvedLeavesSpec(t *testing.T) {
	s := &Spec{
		Faults:       []Fault{{Kind: Crash, At: simclock.FromSeconds(50), Replica: 0}},
		RandomFaults: 4,
		Seed:         7,
		Horizon:      simclock.FromSeconds(60),
	}
	before := append([]Fault(nil), s.Faults...)
	s.Resolved(3)
	if !reflect.DeepEqual(s.Faults, before) {
		t.Error("Resolved mutated the scripted fault list")
	}
}
