package wave

import (
	"testing"
)

// runForStats builds a simulator, drives it with a fixed open-loop workload,
// and returns the full observable outcome.
func runForStats(t *testing.T, cfg Config, w Workload, warmup, measure int64) (Stats, Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunLoad(w, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return s.Stats(), *res
}

// TestActiveSetMatchesFullScan is the correctness contract of the
// activity-driven engine: for every protocol, across topologies, the
// active-set port iteration must produce Stats and Results bit-identical to
// the full-scan oracle (disableActivityTracking) under the same seed.
func TestActiveSetMatchesFullScan(t *testing.T) {
	torus := TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	hcube := TopologyConfig{Kind: "hypercube", Dims: 5}
	cases := []struct {
		name     string
		topo     TopologyConfig
		protocol string
		w        Workload
		tweak    func(*Config)
	}{
		{"clrp-torus", torus, "clrp", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 48}, nil},
		{"carp-torus", torus, "carp", Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}, nil},
		{"wormhole-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}, nil},
		{"pcs-torus", torus, "pcs", Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}, nil},
		{"clrp-hypercube", hcube, "clrp", Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48}, nil},
		{"carp-hypercube", hcube, "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil},
		{"wormhole-hypercube", hcube, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil},
		{"pcs-hypercube", hcube, "pcs", Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}, nil},
		// The wormhole phase transitions off the common path: a header
		// waiting out route computation, credits arriving through the
		// delayed pipe, recovery aborting a message mid-worm, and a tail
		// leaving a VC onto the next message's queued head.
		{"wormhole-routedelay-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16},
			func(c *Config) { c.RouteDelay = 2 }},
		{"wormhole-creditdelay-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16},
			func(c *Config) { c.CreditDelay, c.BufDepth = 2, 2 }},
		{"wormhole-recovery-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 16},
			func(c *Config) { c.Routing, c.NumVCs, c.RecoveryTimeout = "dor-nodateline", 1, 200 }},
		{"wormhole-multimsg-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 2},
			func(c *Config) { c.BufDepth = 8 }},
	}
	// A light second workload exercises the near-empty sets: most cycles
	// have no active port between sparse injections and drains.
	light := Workload{Pattern: "uniform", Load: 0.01, FixedLength: 32}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []Workload{tc.w, light} {
				cfg := DefaultConfig()
				cfg.Topology = tc.topo
				cfg.Protocol = tc.protocol
				cfg.Seed = 12345
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				oracle := cfg
				oracle.disableActivityTracking = true
				wantStats, wantRes := runForStats(t, oracle, w, 500, 2000)
				gotStats, gotRes := runForStats(t, cfg, w, 500, 2000)
				if gotStats != wantStats {
					t.Errorf("load=%g: Stats diverged from full-scan oracle:\n oracle: %+v\n active: %+v",
						w.Load, wantStats, gotStats)
				}
				if gotRes != wantRes {
					t.Errorf("load=%g: Result diverged from full-scan oracle:\n oracle: %+v\n active: %+v",
						w.Load, wantRes, gotRes)
				}
			}
		})
	}
}
