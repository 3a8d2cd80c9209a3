// Package repro_test is the benchmark harness required by DESIGN.md: one
// sub-benchmark per regenerated table/figure (BenchmarkExperiments/e1 ..
// e21, one per experiments.Registry entry) plus micro-benchmarks of the
// substrate engines. Each experiment sub-benchmark runs its experiment at
// the reduced Quick scale once per iteration, so `go test -bench=.` both
// exercises and times the whole evaluation matrix.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/wave"
)

// BenchmarkExperiments regenerates every experiment table at Quick scale
// (the full-scale tables are produced by cmd/waveexp and recorded in
// EXPERIMENTS.md).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Fn(context.Background(), experiments.Quick()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: simulator engine costs.

// BenchmarkWormholeNetworkCycle measures one whole-network cycle of the
// wormhole engine on a loaded 8x8 torus: the inner loop of every experiment.
func BenchmarkWormholeNetworkCycle(b *testing.B) {
	cfg := wave.DefaultConfig()
	cfg.Protocol = "wormhole"
	s, err := wave.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Preload steady traffic.
	for i := 0; i < 64; i++ {
		s.Send(i, (i+9)%64, 32, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
		if s.InFlight() < 32 {
			b.StopTimer()
			for j := 0; j < 32; j++ {
				s.Send(j, (j+9)%64, 32, false)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkCircuitSetup measures the full setup round trip: probe out, ack
// back, cache entry established, then teardown — the per-miss CLRP cost.
func BenchmarkCircuitSetup(b *testing.B) {
	cfg := wave.DefaultConfig()
	cfg.Protocol = "pcs" // per-message circuit: setup + transfer + teardown
	s, err := wave.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Send(i%64, (i+9)%64, 1, true)
		if err := s.Drain(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCLRPCacheHit measures the steady-state cost of a cached-circuit
// send (lookup + scheduled transfer), the fast path of the protocol.
func BenchmarkCLRPCacheHit(b *testing.B) {
	cfg := wave.DefaultConfig()
	s, err := wave.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cache.
	s.Send(0, 9, 16, true)
	if err := s.Drain(100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Send(0, 9, 16, true)
		if err := s.Drain(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRunCLRP measures a complete small measured run (the unit of
// the experiment harness).
func BenchmarkFullRunCLRP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := wave.DefaultConfig()
		cfg.Topology = wave.TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		s, err := wave.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunLoad(wave.Workload{
			Pattern: "uniform", Load: 0.1, FixedLength: 32,
			WorkingSet: 3, Reuse: 0.8, WantCircuit: true,
		}, 200, 1500); err != nil {
			b.Fatal(err)
		}
	}
}
