package tokenflow_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/tokenflow"
)

// specConfig is a small 3-replica session-affinity cluster carrying the
// given chaos and prefix-index specs.
func specConfig(cs *tokenflow.ChaosSpec, is *tokenflow.PrefixIndexSpec) tokenflow.ClusterConfig {
	return tokenflow.ClusterConfig{
		Config:      tokenflow.Config{GPU: "RTX-4090", Model: "Llama3-8B"},
		Replicas:    3,
		Router:      tokenflow.RouterIndexedSessionAffinity,
		Migrate:     true,
		Chaos:       cs,
		PrefixIndex: is,
	}
}

// TestRunClusterRejectsInvalidSpecs: every invalid chaos or prefix-index
// spec comes back from RunCluster as an error naming the fault or field at
// fault — never a panic, never a silent default.
func TestRunClusterRejectsInvalidSpecs(t *testing.T) {
	w := tokenflow.SessionWorkload(4, 10, 20, 1)
	at := tokenflow.Time(2 * time.Second)
	cases := []struct {
		name  string
		chaos *tokenflow.ChaosSpec
		index *tokenflow.PrefixIndexSpec
		want  string
	}{
		{"unknown-fault-kind",
			&tokenflow.ChaosSpec{Faults: []tokenflow.FaultSpec{{Kind: tokenflow.FaultKind(7), At: at}}},
			nil, "fault 0 has unknown kind 7"},
		{"crash-outside-pool",
			&tokenflow.ChaosSpec{Faults: []tokenflow.FaultSpec{
				{Kind: tokenflow.FaultCrash, At: at, Replica: 0},
				{Kind: tokenflow.FaultCrash, At: at, Replica: 3},
			}},
			nil, "fault 1 crashes replica 3 outside pool of 3"},
		{"link-flap-zero-duration",
			&tokenflow.ChaosSpec{Faults: []tokenflow.FaultSpec{
				{Kind: tokenflow.FaultLinkFlap, At: at, From: 0, To: 1},
			}},
			nil, "fault 0 link flap needs a positive duration"},
		{"brownout-factor-one",
			&tokenflow.ChaosSpec{Faults: []tokenflow.FaultSpec{
				{Kind: tokenflow.FaultBrownout, At: at, Replica: 1, Factor: 1, Duration: time.Second},
			}},
			nil, "fault 0 brownout factor 1 must exceed 1"},
		{"random-faults-no-horizon",
			&tokenflow.ChaosSpec{RandomFaults: 2},
			nil, "random faults need a positive horizon"},
		{"negative-propagation-delay",
			nil, &tokenflow.PrefixIndexSpec{PropagationDelay: -time.Millisecond},
			"negative propagation delay"},
		{"drop-rate-one",
			nil, &tokenflow.PrefixIndexSpec{DropRate: 1},
			"drop rate 1 outside [0, 1)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				_, err = tokenflow.RunCluster(specConfig(c.chaos, c.index), w)
			}()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("RunCluster error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestRunClusterSpecsReusable: RunCluster reads the caller's chaos and
// prefix-index specs without writing through them, so one pair of specs
// drives any number of runs, and identical specs reproduce identical
// results. The scripted faults are deliberately out of time order: the
// plan is sorted, but on a copy (random faults would force that copy by
// appending, so the plan is scripted only).
func TestRunClusterSpecsReusable(t *testing.T) {
	w := tokenflow.SessionWorkload(12, 30, 20, 3)
	cs := &tokenflow.ChaosSpec{
		Faults: []tokenflow.FaultSpec{
			{Kind: tokenflow.FaultLinkFlap, At: tokenflow.Time(20 * time.Second), From: 0, To: 2, Duration: 3 * time.Second},
			{Kind: tokenflow.FaultBrownout, At: tokenflow.Time(5 * time.Second), Replica: 1, Factor: 2, Duration: 4 * time.Second},
			{Kind: tokenflow.FaultCrash, At: tokenflow.Time(12 * time.Second), Replica: 2},
		},
		Redundancy: 2,
	}
	is := &tokenflow.PrefixIndexSpec{
		PropagationDelay: 50 * time.Millisecond,
		DropRate:         0.1,
		HeartbeatEvery:   250 * time.Millisecond,
		Seed:             4,
	}
	csBefore := *cs
	csBefore.Faults = append([]tokenflow.FaultSpec(nil), cs.Faults...)
	isBefore := *is

	first, err := tokenflow.RunCluster(specConfig(cs, is), w)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tokenflow.RunCluster(specConfig(cs, is), w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*cs, csBefore) {
		t.Errorf("chaos spec modified by RunCluster:\n got %+v\nwant %+v", *cs, csBefore)
	}
	if !reflect.DeepEqual(*is, isBefore) {
		t.Errorf("prefix-index spec modified by RunCluster:\n got %+v\nwant %+v", *is, isBefore)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two runs of the same specs produced different results")
	}
	if first.Crashes != 1 || first.Brownouts == 0 || first.LinkFlaps == 0 {
		t.Errorf("faults not injected: %d crashes, %d brownouts, %d link flaps",
			first.Crashes, first.Brownouts, first.LinkFlaps)
	}
	if first.PrefixIndex == nil || first.PrefixIndex.Heartbeats == 0 {
		t.Errorf("prefix index not running on the spec: %+v", first.PrefixIndex)
	}
}
