package wave

import (
	"os"
	"testing"

	"repro/internal/pins"
)

// TestMain fails a run that leaves a testdata/pins.txt entry unchecked.
func TestMain(m *testing.M) { os.Exit(pins.Main(m)) }

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

// TestStatsPinnedAcrossProtocols is the correctness contract of the
// activity-driven engine: for every protocol, across topologies, a run's
// Stats and Result must reproduce its stats/<case>/loaded and
// stats/<case>/light pins, taken when the engine still had a full-scan mode
// and both modes agreed on them, and Check must hold every 500 cycles.
func TestStatsPinnedAcrossProtocols(t *testing.T) {
	torus := TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	torus16 := TopologyConfig{Kind: "torus", Radix: []int{16, 16}}
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
		// The benchmark's wormhole shape (wh_uniform_16x16): the default
		// duato routing over 3 VCs at the size the traversal walk is timed.
		{"wormhole-torus16", torus16, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 32}, nil},
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
			for _, run := range []struct {
				name string
				w    Workload
			}{{"loaded", tc.w}, {"light", light}} {
				cfg := DefaultConfig()
				cfg.Topology = tc.topo
				cfg.Protocol = tc.protocol
				cfg.Seed = 12345
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				st, res := runForStats(t, cfg, run.w, 500, 2000)
				pins.Check(t, "stats/"+tc.name+"/"+run.name, pins.SumJSON(t, []any{st, res}))
			}
		})
	}
}
