package wave

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// checkEvery makes s run Check every `every` cycles of its run loops,
// failing the test at the first broken invariant.
func checkEvery(t *testing.T, s *Simulator, every int64) {
	t.Helper()
	s.OnInterval(every, func(now int64) {
		if err := s.Check(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	})
}

// runForStats builds a simulator, drives it with a fixed open-loop workload
// under Check every 500 cycles, and returns the full observable outcome.
func runForStats(t *testing.T, cfg Config, w Workload, warmup, measure int64) (Stats, Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEvery(t, s, 500)
	res, err := s.RunLoad(w, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return s.Stats(), *res
}

// digestOf returns the SHA-256 of v's JSON form.
func digestOf(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// TestActiveSetMatchesFullScan is the correctness contract of the
// activity-driven engine: for every protocol, across topologies, a run's
// Stats and Result must reproduce the digest pinned when the engine still
// had a full-scan mode and both modes agreed on it, and Check must hold
// every 500 cycles. The full scan itself is gone (DESIGN.md, Invariants).
func TestActiveSetMatchesFullScan(t *testing.T) {
	torus := TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	torus16 := TopologyConfig{Kind: "torus", Radix: []int{16, 16}}
	hcube := TopologyConfig{Kind: "hypercube", Dims: 5}
	cases := []struct {
		name     string
		topo     TopologyConfig
		protocol string
		w        Workload
		tweak    func(*Config)
		pins     [2]string // loaded workload, light workload
	}{
		{"clrp-torus", torus, "clrp", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 48}, nil,
			[2]string{"31720932445be7f743bddd23dc21d817f3d9b308b22578cf1c79cd11fc729198", "51bbd7b6e0c13f4ecb179a72d687c0a7984caf9aef2d830cf6adcad532267809"}},
		{"carp-torus", torus, "carp", Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}, nil,
			[2]string{"4be74c9b784bf0f9fd505d55cd70aa12dc20b2e545b2ca593c2a566dd6288dc0", "b493156986c3cb3ba284c21854525f8035287a02a8abf64197783939d10977ca"}},
		{"wormhole-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}, nil,
			[2]string{"ec3d52afff409cab7485b8de648a1c57461bb6d3ea171b8803832f5640f12b17", "87977663191187f6e64d9b99859947bbe7d6990803e6392a9091de30abdfe4d4"}},
		{"pcs-torus", torus, "pcs", Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}, nil,
			[2]string{"1c2b4d4df112ef4d994e76b9d82de5e03c92f5166bb86ce978d11b89ecad9871", "6ba602324e21767de3e307d7ff789b569207eba1acf2c1ba2df61d253b52b1bb"}},
		{"clrp-hypercube", hcube, "clrp", Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48}, nil,
			[2]string{"c58fb32bc93a0f4f814104866776cf11c3198f7bf0ab053b5c20065b148d19f5", "2c5dce482fdfc7b914bd01b692ebd03b55ea2491f660f209d6fd5b611c9a8326"}},
		{"carp-hypercube", hcube, "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil,
			[2]string{"edeb4f9354ac997ee3e108fbfdc20f00dd3f016fc2a5cdfd2e29e916b39d1e9c", "7aa3e7abc6f1905316719da39e6ac2e6cc814bc50f4875a2e8d02b9bb9d9aa00"}},
		{"wormhole-hypercube", hcube, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil,
			[2]string{"66473b76508297f05a9eb9cd834d7c07aa1792472ac7288dc9b254ade8635af9", "e9503e1ddf673fb638df281f504e59f19e746f4e4fabfe84580c04091e97fcea"}},
		{"pcs-hypercube", hcube, "pcs", Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}, nil,
			[2]string{"34ac59b6e1a107ae743e5377ee7f40a25c98494167936031b2d0c6591832888a", "a067aa508be560cd78f036aca44193abb2bda5231425664582bb0c1beb537e4c"}},
		// The benchmark's wormhole shape (wh_uniform_16x16): the default
		// duato routing over 3 VCs at the size the traversal walk is timed.
		{"wormhole-torus16", torus16, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 32}, nil,
			[2]string{"ce26f06b8fb5eef8ad8a809ce8cde8a3e173ea9c06ab6caf143bed2b35dd5044", "ff83cca0a85eb786ed20e7ac1180d525960ff586f5f8d487d37202f819e94303"}},
		// The wormhole phase transitions off the common path: a header
		// waiting out route computation, credits arriving through the
		// delayed pipe, recovery aborting a message mid-worm, and a tail
		// leaving a VC onto the next message's queued head.
		{"wormhole-routedelay-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16},
			func(c *Config) { c.RouteDelay = 2 },
			[2]string{"b5cc008f5e41f7dbcd1b15ad122aba3ff2e7feaee7d4c7cd0990cfef88327b92", "a3e27f201a4a0d4fc00687eb678593b2aa95a3bf38a02e64b6ba16540edf890d"}},
		{"wormhole-creditdelay-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16},
			func(c *Config) { c.CreditDelay, c.BufDepth = 2, 2 },
			[2]string{"f2de06b0133a4bac42bf310b335dc40bfae0a83808e31afcd0f8c2a012c13b65", "598f9fbd9c6d67158956d3a4788b79520371a8212f1163c20d8d1394c021773e"}},
		{"wormhole-recovery-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 16},
			func(c *Config) { c.Routing, c.NumVCs, c.RecoveryTimeout = "dor-nodateline", 1, 200 },
			[2]string{"32007653f35acf9e7ac6df113d300b52ede803177e5ed27b67d2e81c1aeb09c1", "c25316c32324f1f7236787a0a88c089578db959db648d60cc6ceb4a6ddf3d7d1"}},
		{"wormhole-multimsg-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 2},
			func(c *Config) { c.BufDepth = 8 },
			[2]string{"cd4c02cf57fba8d44773e1c40f9ba1328163d981b9815fbd32319dbde72109ea", "87977663191187f6e64d9b99859947bbe7d6990803e6392a9091de30abdfe4d4"}},
	}
	// A light second workload exercises the near-empty sets: most cycles
	// have no active port between sparse injections and drains.
	light := Workload{Pattern: "uniform", Load: 0.01, FixedLength: 32}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, w := range []Workload{tc.w, light} {
				cfg := DefaultConfig()
				cfg.Topology = tc.topo
				cfg.Protocol = tc.protocol
				cfg.Seed = 12345
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				st, res := runForStats(t, cfg, w, 500, 2000)
				if got := digestOf(t, []any{st, res}); got != tc.pins[i] {
					t.Errorf("load=%g: Stats and Result digest %s, pinned %s", w.Load, got, tc.pins[i])
				}
			}
		})
	}
}
