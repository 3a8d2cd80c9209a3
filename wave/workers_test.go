package wave

import (
	"runtime"
	"strings"
	"testing"
)

// TestWorkersIgnored pins the compatibility contract of the deprecated
// Config.Workers: every non-negative value runs the one single-threaded
// engine — equal Stats and Result, EngineWorkers() == 1, and no goroutine
// outlives New or RunLoad.
func TestWorkersIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{16, 16}}
	cfg.CacheCapacity = 2
	cfg.Seed = 7
	w := Workload{Pattern: "hotspot", Load: 0.25, FixedLength: 32}

	var wantStats Stats
	var wantRes Result
	for i, workers := range []int{0, 1, 8} {
		cfg.Workers = workers
		before := runtime.NumGoroutine()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunLoad(w, 600, 600)
		if err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("Workers=%d: goroutines %d -> %d across New + RunLoad", workers, before, after)
		}
		if got := s.EngineWorkers(); got != 1 {
			t.Errorf("Workers=%d: EngineWorkers() = %d, want 1", workers, got)
		}
		if i == 0 {
			wantStats, wantRes = s.Stats(), *res
			continue
		}
		if got := s.Stats(); got != wantStats {
			t.Errorf("Workers=%d: Stats differ from Workers=0:\n want %+v\n  got %+v", workers, wantStats, got)
		}
		if *res != wantRes {
			t.Errorf("Workers=%d: Result differs from Workers=0:\n want %+v\n  got %+v", workers, wantRes, *res)
		}
	}
}

// TestNegativeWorkersRejected: a negative worker count must fail
// construction with a descriptive error.
func TestNegativeWorkersRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -2
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Workers = -2")
	} else if !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("error %q does not mention Workers", err)
	}
}
