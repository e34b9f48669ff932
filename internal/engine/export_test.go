package engine

import (
	"fmt"
	"slices"

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

// CheckDecodeBatch holds a kept decode batch and its context sum against a
// fresh walk of the running set. Call it from a decode probe: at the
// batch's first member no token of the iteration is delivered yet, so a
// kept batch must be exactly what decodeBatch would rebuild.
func CheckDecodeBatch(e *Engine, r *request.Request) error {
	if !e.batchValid || len(e.batchBuf) == 0 || r != e.batchBuf[0] {
		return nil
	}
	kept, keptKV, keptCtx := slices.Clone(e.batchBuf), slices.Clone(e.batchKV), e.batchCtx
	e.batchValid = false
	e.advancing = false
	fresh, ctx := e.decodeBatch()
	e.advancing = true
	if !slices.Equal(kept, fresh) || !slices.Equal(keptKV, e.batchKV) || keptCtx != ctx {
		return fmt.Errorf("request %d token %d: kept batch of %d (context %d), a fresh walk gives %d (context %d)",
			r.ID, r.Generated+1, len(kept), keptCtx, len(fresh), ctx)
	}
	return nil
}

// ForgetDecodeBatch makes the next decodeBatch walk the running set: called
// from a decode probe at every decoded token, it gives the reference that
// rebuilds the batch for every iteration.
func ForgetDecodeBatch(e *Engine) { e.batchValid = false }
