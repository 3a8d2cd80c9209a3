package wave

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// torusConfig is the default configuration on a k×k torus.
func torusConfig(k int) Config {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{k, k}}
	return cfg
}

// TestNewAllocationsIndependentOfSize: every register of a new simulator
// is born in its reset state, the zero value, so construction allocates
// each array once and writes no per-channel, per-port or per-node object.
// Its allocation count must not depend on the node count; 64 times the
// nodes once meant 50 times the allocations (248 at 8×8, 12,350 at 64×64),
// three per node for its circuit cache.
func TestNewAllocationsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations; the exact comparison runs without -race")
	}
	// A collection started by the 64×64 arrays allocates for its own
	// workers; with collection off, the count is construction's alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, policy := range []string{"lru", "random"} {
		allocs := func(k int) float64 {
			cfg := torusConfig(k)
			cfg.Protocol = "clrp"
			cfg.ReplacePolicy = policy
			return testing.AllocsPerRun(3, func() {
				if _, err := New(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, big := allocs(8), allocs(64); small != big {
			t.Errorf("%s: New allocates %v times at 8×8 and %v at 64×64", policy, small, big)
		}
	}
}

// newSink keeps BenchmarkNew's simulators observable.
var newSink *Simulator

// BenchmarkNew times building a CLRP simulator with LRU caches; allocs/op
// stays the same at every size.
func BenchmarkNew(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			cfg := torusConfig(k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				newSink = s
			}
		})
	}
}
