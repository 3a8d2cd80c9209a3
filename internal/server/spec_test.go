package server

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/wave"
)

// TestSimConfigMergesOverDefaults: absent fields keep DefaultConfig values
// so clients can submit sparse configs.
func TestSimConfigMergesOverDefaults(t *testing.T) {
	var c SimConfig
	if err := json.Unmarshal([]byte(`{"protocol":"wormhole","seed":42}`), &c); err != nil {
		t.Fatal(err)
	}
	def := wave.DefaultConfig()
	got := wave.Config(c)
	if got.Protocol != "wormhole" || got.Seed != 42 {
		t.Fatalf("overrides not applied: %+v", got)
	}
	if got.NumVCs != def.NumVCs || got.CacheCapacity != def.CacheCapacity ||
		got.Topology.Kind != def.Topology.Kind {
		t.Fatalf("defaults not preserved: got %+v, defaults %+v", got, def)
	}
}

// TestSimConfigRefusesUnknownKeys: a misspelt key inside a config is an
// error, while a fully spelt-out config — the shape the benchmark's serve
// workload sends — decodes strictly to the same value.
func TestSimConfigRefusesUnknownKeys(t *testing.T) {
	var c SimConfig
	if err := json.Unmarshal([]byte(`{"protocl":"clrp"}`), &c); err == nil {
		t.Fatal("misspelt config key accepted")
	}
	b, err := json.Marshal(SimConfig(wave.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("marshalled DefaultConfig refused: %v", err)
	}
	if !reflect.DeepEqual(wave.Config(c), wave.DefaultConfig()) {
		t.Fatalf("round trip changed the config: %+v", c)
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	sp := Spec{Kind: KindLoad, Load: &wave.Workload{Pattern: "uniform", Load: 0.05, FixedLength: 16}}
	if err := s.normalize(&sp); err != nil {
		t.Fatal(err)
	}
	if sp.Measure == 0 || sp.IntervalCycles == 0 {
		t.Fatalf("defaults not filled: %+v", sp)
	}
}

func TestNormalizeRejections(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown kind", Spec{Kind: "weird"}},
		{"empty kind", Spec{}},
		{"load without workload", Spec{Kind: KindLoad}},
		{"closed without workload", Spec{Kind: KindClosed}},
		{"experiment kind", Spec{Kind: "experiment"}},
		{"negative timeout", Spec{Kind: KindLoad, Load: &wave.Workload{}, TimeoutSec: -1}},
		{"negative warmup", Spec{Kind: KindLoad, Load: &wave.Workload{}, Warmup: -1}},
	}
	for _, tc := range cases {
		sp := tc.spec
		if err := s.normalize(&sp); err == nil {
			t.Errorf("%s: normalize accepted %+v", tc.name, tc.spec)
		}
	}
}
