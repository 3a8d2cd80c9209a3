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
			[2]string{"11d4d3a9cc03e587614dac22a81b637e6da140fd9aad91dc3e730a4dbaf2ca0c", "562adcb32b9896f57bd5a05294ec8a7c4b215c0f024882effd6a35ae6e3d5e37"}},
		{"carp-torus", torus, "carp", Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}, nil,
			[2]string{"684cf8571fac01a27791cdc0b859ef127d9d8e1e03f282c68a2cbc5545d3dff1", "e2fcbc6add77dcab128161042a6db190a869e36be6d4d1ae2e71c67c4dc06c1e"}},
		{"wormhole-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}, nil,
			[2]string{"88a87a1ca24f0d8771e36c2b59717195f8652549725bb8fb2306308195476f38", "e95d6236fcfc87654e211602b321c156d0cdf0aa7bf2b56e0526ea9723f2bf73"}},
		{"pcs-torus", torus, "pcs", Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}, nil,
			[2]string{"11207825dcd90e07032f073870e38779139dbb753338791e5ab1bd07e217e68e", "27019f5bc4c2d05ca0ebda8a369ec895ff63c918a1648725052d626805a15958"}},
		{"clrp-hypercube", hcube, "clrp", Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48}, nil,
			[2]string{"cae80d0044ba31d4f9063e4003bb6f22cbe4b794aa4f9c1c469790e1769c1c33", "97ef0c1e695882bad87cf31fb72dc70da2d1f9a0a021a6a9c76a62fb03ec3de3"}},
		{"carp-hypercube", hcube, "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil,
			[2]string{"758bbbaba67ff4e49f1f923fa115ce6aba070e56e912a3f3d3c2c681eebc8b10", "f9eb923fbd0e80855e7637082bcd331079583d997d67d95c345d0a6e027e5ffd"}},
		{"wormhole-hypercube", hcube, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil,
			[2]string{"24c28f4bcd8cde3c9a1874645efa7b1961a9247380e4774bf60d0d4c421c0e4f", "10a0d211a8f5237f6205a90d45c5ead8d947f93284fe7c20398a85103aa4a98c"}},
		{"pcs-hypercube", hcube, "pcs", Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}, nil,
			[2]string{"16c6cbc7c4367b6dca40668abaa2ed30adf094e6dfcc66d41f3cf17a105f9844", "4ae9dc7e12e5feb934206fa83aa7491588bcb8be79a8ac95da14922888db94aa"}},
		// The wormhole phase transitions off the common path: a header
		// waiting out route computation, credits arriving through the
		// delayed pipe, recovery aborting a message mid-worm, and a tail
		// leaving a VC onto the next message's queued head.
		{"wormhole-routedelay-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16},
			func(c *Config) { c.RouteDelay = 2 },
			[2]string{"c0531c14dc90eb78add3d6225c276ea4c4741d5ef585bdb2820a42cec97ab191", "804a038c3b8d3e07aeff9045461b5898c55c38bd9842a5a79c49d5da9c71d8b7"}},
		{"wormhole-creditdelay-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16},
			func(c *Config) { c.CreditDelay, c.BufDepth = 2, 2 },
			[2]string{"dfbefc31e68ad349c12e3c9fb51fb6124c37d842323e122770b544c5f37bf25c", "e44d770dccd936959479dad671218ab8fa14880be1daad4ea71ddb2a7f53a47d"}},
		{"wormhole-recovery-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 16},
			func(c *Config) { c.Routing, c.NumVCs, c.RecoveryTimeout = "dor-nodateline", 1, 200 },
			[2]string{"d390274fcf441e7f25324e3b21b6ad86b5733594f931eff3cf2f87c52d843713", "0e1483806318429e9f05d627ceed2913c599519d61401c68bd884408851f8237"}},
		{"wormhole-multimsg-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 2},
			func(c *Config) { c.BufDepth = 8 },
			[2]string{"4385a3766ac4f76f455ded32bed164e6a0fbae16ecf2c96076b141ee892fc1e0", "e95d6236fcfc87654e211602b321c156d0cdf0aa7bf2b56e0526ea9723f2bf73"}},
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
