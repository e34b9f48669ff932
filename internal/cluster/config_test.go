package cluster_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/prefixindex"
	"repro/internal/router"
)

// configView projects the Config fields Normalize resolves, flattening the
// autoscale block (zero when the config is static).
type configView struct {
	Replicas, Shards        int
	MaxSimTime, SampleEvery time.Duration
	MigrationPolicy         cluster.MigrationPolicy

	Min, Max, GatewayDepth int
	Warmup                 time.Duration
}

func viewOf(c cluster.Config) configView {
	v := configView{Replicas: c.Replicas, Shards: c.Shards, MaxSimTime: c.MaxSimTime,
		SampleEvery: c.SampleEvery, MigrationPolicy: c.MigrationPolicy}
	if a := c.Autoscale; a != nil {
		v.Min, v.Max, v.GatewayDepth = a.Min, a.Max, a.GatewayDepth
		v.Warmup = a.Warmup
	}
	return v
}

// TestConfigNormalizeDefaults: zero fields take their defaults, set fields
// stay, Shards clamps into [1, Replicas] and to 1 for a routed run,
// Autoscale.Max sizes the pool, the caller's autoscale spec is never
// written through, and normalizing twice changes nothing.
func TestConfigNormalizeDefaults(t *testing.T) {
	rr := router.NewRoundRobin()
	scaler := autoscale.NewQueuePressure()
	auto := func(a cluster.AutoscaleConfig) *cluster.AutoscaleConfig {
		a.Policy = scaler
		return &a
	}
	static := configView{Replicas: 1, Shards: 1, MaxSimTime: 4 * time.Hour, MigrationPolicy: cluster.MigrateAlways}
	// scaled is the fully defaulted autoscale view of a pool of n.
	scaled := func(n int) configView {
		v := static
		v.Replicas, v.Min, v.Max = n, 1, n
		v.GatewayDepth, v.Warmup = 512, 8*time.Second
		return v
	}
	with := func(v configView, edit func(*configView)) configView {
		edit(&v)
		return v
	}
	cases := []struct {
		name string
		in   cluster.Config
		want configView
	}{
		{"zero", cluster.Config{Policy: rr}, static},
		// Sampling makes the run routed, so it takes one shard.
		{"set-fields-stay",
			cluster.Config{Policy: rr, Replicas: 3, Shards: 2, MaxSimTime: time.Hour, SampleEvery: time.Second,
				MigrationPolicy: cluster.MigrateCost},
			configView{Replicas: 3, Shards: 1, MaxSimTime: time.Hour, SampleEvery: time.Second,
				MigrationPolicy: cluster.MigrateCost}},
		{"shards-clamp-to-replicas", cluster.Config{Policy: rr, Replicas: 3, Shards: 8},
			with(static, func(v *configView) { v.Replicas, v.Shards = 3, 3 })},
		{"shards-one", cluster.Config{Policy: rr, Replicas: 3, Shards: 1},
			with(static, func(v *configView) { v.Replicas = 3 })},
		{"fast-path-keeps-shards", cluster.Config{Policy: rr, Replicas: 4, Shards: 3},
			with(static, func(v *configView) { v.Replicas, v.Shards = 4, 3 })},
		{"routed-least-queue-one-shard", cluster.Config{Policy: router.NewLeastQueue(), Replicas: 4, Shards: 3},
			with(static, func(v *configView) { v.Replicas = 4 })},
		{"inactive-chaos-keeps-fast-path", cluster.Config{Policy: rr, Replicas: 4, Shards: 3, Chaos: &chaos.Spec{}},
			with(static, func(v *configView) { v.Replicas, v.Shards = 4, 3 })},
		{"active-chaos-one-shard",
			cluster.Config{Policy: rr, Replicas: 4, Shards: 3, Chaos: &chaos.Spec{Redundancy: 2}},
			with(static, func(v *configView) { v.Replicas = 4 })},
		{"migrate-one-shard", cluster.Config{Policy: rr, Replicas: 4, Shards: 3, Migrate: true},
			with(static, func(v *configView) { v.Replicas = 4 })},
		{"events-one-shard", cluster.Config{Policy: rr, Replicas: 4, Shards: 3, Obs: obs.Options{Events: true}},
			with(static, func(v *configView) { v.Replicas = 4 })},
		{"prefix-index-one-shard",
			cluster.Config{Policy: rr, Replicas: 4, Shards: 3, PrefixIndex: &prefixindex.Spec{}},
			with(static, func(v *configView) { v.Replicas = 4 })},
		{"indexed-policy-one-shard", cluster.Config{Policy: router.NewIndexedLeastQueue(), Replicas: 4, Shards: 3},
			with(static, func(v *configView) { v.Replicas = 4 })},
		// The obs layers that need no coordinator events keep the fast
		// path's shards.
		{"obs-without-events-keeps-fast-path",
			cluster.Config{Policy: rr, Replicas: 4, Shards: 3,
				Obs: obs.Options{Attribution: true, Series: true, Profile: true}},
			with(static, func(v *configView) { v.Replicas, v.Shards = 4, 3 })},
		{"autoscale-defaults", cluster.Config{Policy: rr, Replicas: 4, Autoscale: auto(cluster.AutoscaleConfig{})},
			scaled(4)},
		{"autoscale-max-sizes-the-pool",
			cluster.Config{Policy: rr, Replicas: 2, Shards: 8, Autoscale: auto(cluster.AutoscaleConfig{Max: 5})},
			scaled(5)},
		{"autoscale-set-fields-stay",
			cluster.Config{Policy: rr, Replicas: 4, Autoscale: auto(cluster.AutoscaleConfig{
				Min: 2, Max: 4, GatewayDepth: -1, Warmup: 3 * time.Second})},
			with(scaled(4), func(v *configView) {
				v.Min, v.GatewayDepth, v.Warmup = 2, -1, 3*time.Second
			})},
		{"scale-to-zero-forces-min-0",
			cluster.Config{Policy: rr, Replicas: 3, Autoscale: auto(cluster.AutoscaleConfig{Min: 2, ScaleToZero: true})},
			with(scaled(3), func(v *configView) { v.Min = 0 })},
		{"negative-warmup-is-instant",
			cluster.Config{Policy: rr, Replicas: 2, Autoscale: auto(cluster.AutoscaleConfig{Warmup: -time.Second})},
			with(scaled(2), func(v *configView) { v.Warmup = 0 })},
	}
	for _, c := range cases {
		var spec cluster.AutoscaleConfig
		if c.in.Autoscale != nil {
			spec = *c.in.Autoscale
		}
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("%s: Normalize() = %v", c.name, err)
			continue
		}
		if v := viewOf(got); v != c.want {
			t.Errorf("%s: Normalize() = %+v, want %+v", c.name, v, c.want)
		}
		if c.in.Autoscale != nil && !reflect.DeepEqual(*c.in.Autoscale, spec) {
			t.Errorf("%s: Normalize wrote into the caller's autoscale spec", c.name)
		}
		again, err := got.Normalize()
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: normalizing twice = %+v, %v; want %+v", c.name, viewOf(again), err, viewOf(got))
		}
	}
}

// TestConfigNormalizeRejectsBadValues: every invalid config is an error
// that names what is wrong.
func TestConfigNormalizeRejectsBadValues(t *testing.T) {
	rr := router.NewRoundRobin()
	scaler := autoscale.NewQueuePressure()
	auto := func(a cluster.AutoscaleConfig) *cluster.AutoscaleConfig {
		a.Policy = scaler
		return &a
	}
	cases := []struct {
		name string
		in   cluster.Config
		want string // substring of the error
	}{
		{"negative-replicas", cluster.Config{Policy: rr, Replicas: -2}, "replica count -2"},
		{"negative-shards", cluster.Config{Policy: rr, Replicas: 2, Shards: -1}, "shard count -1"},
		{"negative-max-sim-time", cluster.Config{Policy: rr, MaxSimTime: -5 * time.Second}, "max sim time -5s"},
		{"negative-sample-every", cluster.Config{Policy: rr, SampleEvery: -time.Second}, "sample period -1s"},
		{"nil-policy", cluster.Config{Replicas: 2}, "nil routing policy"},
		{"unknown-migration-policy", cluster.Config{Policy: rr, MigrationPolicy: "sometimes"}, `"sometimes"`},
		{"nil-autoscale-policy", cluster.Config{Policy: rr, Replicas: 2, Autoscale: &cluster.AutoscaleConfig{}},
			"nil policy"},
		{"negative-min", cluster.Config{Policy: rr, Replicas: 2, Autoscale: auto(cluster.AutoscaleConfig{Min: -1})},
			"min -1 must be >= 1"},
		{"min-over-max", cluster.Config{Policy: rr, Replicas: 2, Autoscale: auto(cluster.AutoscaleConfig{Min: 3, Max: 2})},
			"min 3 exceeds max 2"},
		{"min-over-default-max", cluster.Config{Policy: rr, Replicas: 2, Autoscale: auto(cluster.AutoscaleConfig{Min: 3})},
			"min 3 exceeds max 2"},
		{"negative-max", cluster.Config{Policy: rr, Replicas: 2, Autoscale: auto(cluster.AutoscaleConfig{Max: -1})},
			"min 1 exceeds max -1"},
	}
	for _, c := range cases {
		_, err := c.in.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
