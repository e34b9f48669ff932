package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// validConfig is a minimal config Normalize accepts: the required
// scheduler, clock and fabric endpoint, every tunable left zero.
func validConfig() Config {
	cfg := testConfig(sched.NewSGLang(), BaselineKVPolicy())
	cfg.Clock = simclock.New()
	cfg.Fabric = fabric.NewSingleHost(1e9, 1e9)
	return cfg
}

// TestConfigNormalizeDefaults: zero fields take their defaults, set fields
// stay, and normalizing twice changes nothing.
func TestConfigNormalizeDefaults(t *testing.T) {
	base := validConfig()
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	defaulted := func(edit func(*Config)) Config {
		return with(func(c *Config) {
			c.MemFraction, c.MaxBatch = 0.9, 256
			edit(c)
		})
	}
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"zero", base, defaulted(func(*Config) {})},
		{"set-fields-stay",
			with(func(c *Config) { c.MemFraction, c.MaxBatch = 0.8, 64 }),
			defaulted(func(c *Config) { c.MemFraction, c.MaxBatch = 0.8, 64 })},
		{"full-mem-fraction", with(func(c *Config) { c.MemFraction = 1 }),
			defaulted(func(c *Config) { c.MemFraction = 1 })},
	}
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("%s: Normalize() = %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Normalize() = %+v, want %+v", c.name, got, c.want)
		}
		again, err := got.Normalize()
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: normalizing twice = %+v, %v; want %+v", c.name, again, err, got)
		}
	}
}

// TestConfigNormalizeRejectsBadValues: every invalid config is an error
// that names what is wrong.
func TestConfigNormalizeRejectsBadValues(t *testing.T) {
	with := func(edit func(*Config)) Config {
		c := validConfig()
		edit(&c)
		return c
	}
	cases := []struct {
		name string
		in   Config
		want string // substring of the error
	}{
		{"nil-scheduler", with(func(c *Config) { c.Scheduler = nil }), "nil scheduler"},
		{"nil-clock", with(func(c *Config) { c.Clock = nil }), "nil clock"},
		{"nil-fabric", with(func(c *Config) { c.Fabric = nil }), "nil fabric"},
		{"mem-fraction-below-0", with(func(c *Config) { c.MemFraction = -0.1 }), "mem fraction -0.1"},
		{"mem-fraction-above-1", with(func(c *Config) { c.MemFraction = 1.5 }), "mem fraction 1.5"},
		{"mem-fraction-NaN", with(func(c *Config) { c.MemFraction = math.NaN() }), "mem fraction NaN"},
		{"negative-max-batch", with(func(c *Config) { c.MaxBatch = -1 }), "max batch -1"},
		{"bad-model", with(func(c *Config) { c.Model = model.Spec{} }), "model"},
	}
	for _, c := range cases {
		_, err := c.in.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
