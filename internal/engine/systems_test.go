package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// paperOrder is the §7 presentation order of the evaluated systems.
var paperOrder = []string{"sglang-chunked", "sglang", "andes", "tokenflow"}

// TestSystemTable: the shared table lists the paper's four systems in its
// order, builds each one's own scheduler with the KV policy its preemption
// model needs, and rejects an unknown name.
func TestSystemTable(t *testing.T) {
	if got := engine.Systems(); !reflect.DeepEqual(got, paperOrder) {
		t.Fatalf("Systems() = %v, want %v", got, paperOrder)
	}
	wantKV := map[string]engine.KVPolicy{
		engine.SystemSGLangChunked: engine.BaselineKVPolicy(),
		engine.SystemSGLang:        engine.BaselineKVPolicy(),
		engine.SystemAndes:         engine.BaselineKVPolicy(),
		engine.SystemTokenFlow:     engine.TokenFlowKVPolicy(),
	}
	for _, name := range engine.Systems() {
		s, kv, err := engine.NewSystem(name, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("%s: scheduler Name() = %q", name, s.Name())
		}
		if kv != wantKV[name] {
			t.Errorf("%s: KV policy %+v, want %+v", name, kv, wantKV[name])
		}
	}
	if s, _, err := engine.NewSystem("fifo", core.DefaultConfig()); err == nil || s != nil {
		t.Errorf("unknown system: scheduler %v, err %v; want nil and an error", s, err)
	}
	bad := core.DefaultConfig()
	bad.BufferConservativeness = -1
	if _, _, err := engine.NewSystem(engine.SystemTokenFlow, bad); err == nil {
		t.Error("tokenflow with a negative μ: no error")
	}
	if _, _, err := engine.NewSystem(engine.SystemSGLang, bad); err != nil {
		t.Errorf("sglang ignores the TokenFlow config, got %v", err)
	}
}
