package engine

import (
	"repro/internal/kvcache"
	"repro/internal/request"
)

// Test hooks for the external engine_test package.
var SmallConfig = testConfig

// SetDecodeProbe installs fn to observe every decoded token's request and
// the residency handle the engine holds for it (nil removes it).
func SetDecodeProbe(e *Engine, fn func(r *request.Request, h kvcache.Handle)) {
	e.decodeProbe = fn
}
