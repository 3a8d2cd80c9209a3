package wave

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The injection window of a load run draws its traffic on a producer
// goroutine (traffic.Ahead). These tests check that the goroutine is joined
// on every way out of RunLoad and that the simulated outcome does not depend
// on how many cores the producer gets.

// runAheadCfg is a small CLRP torus whose load run fires a few messages a
// cycle and draws locality working sets.
func runAheadCfg() (Config, Workload) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	cfg.Protocol = "clrp"
	cfg.Seed = 21
	return cfg, Workload{Pattern: "uniform", Load: 0.15, FixedLength: 32, WorkingSet: 3, Reuse: 0.7, RedrawPeriod: 20}
}

// waitGoroutines fails the test unless the goroutine count returns to the
// baseline want within a second. Stop joins the producer, but a goroutine
// that has signalled its exit still counts for the few instructions it
// takes to return, so the count is polled rather than read once; one such
// goroutine of an earlier test may also sit in the baseline, so a count
// below it passes.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, baseline %d", after, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunAheadGoroutineJoined(t *testing.T) {
	cfg, w := runAheadCfg()
	base := runtime.NumGoroutine()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.RunLoad(w, 300, 1200)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := s.Stats()
	waitGoroutines(t, base, "RunLoad")

	// Cancelled in the middle of an enormous window: the producer is
	// blocked on a full set of batches when the run returns.
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.OnInterval(100, func(now int64) {
		if now == 700 {
			cancel()
		}
	})
	if _, err := s.RunLoadContext(ctx, w, 300, 1_000_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "a cancelled RunLoad")

	// A watchdog error in the injection window.
	trip := cfg
	trip.WatchdogMaxAge = 3
	s, err = New(trip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(w, 300, 1_000_000_000); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want a watchdog trip", err)
	}
	if s.Now() >= 300+1_000_000_000 {
		t.Fatal("watchdog tripped after the injection window")
	}
	waitGoroutines(t, base, "a watchdog error")

	// A checkpoint taken from the interval hook mid-window, restored and
	// resumed: the resumed run starts its own producer and joins it, and
	// finishes with the uninterrupted run's Result and Stats.
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	s.OnInterval(500, func(now int64) {
		if now == 500 {
			if err := s.Snapshot(&snap); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := s.RunLoad(w, 300, 1200); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ResumeLoad()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want || r.Stats() != wantStats {
		t.Fatalf("restored and resumed run differs from the uninterrupted one:\n got %+v\nwant %+v", *got, *want)
	}
	waitGoroutines(t, base, "Restore + ResumeLoad")
}

// TestRunAheadGOMAXPROCS: one core or two, the run produces the same Stats
// and Result, over a window of two batches and one shorter than a batch
// (with 8x8 hosts a batch spans 1024 cycles).
func TestRunAheadGOMAXPROCS(t *testing.T) {
	cfg, w := runAheadCfg()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, window := range []struct{ warmup, measure int64 }{{300, 1200}, {20, 80}} {
		var want Stats
		var wantRes Result
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			st, res := runForStats(t, cfg, w, window.warmup, window.measure)
			if i == 0 {
				want, wantRes = st, res
				continue
			}
			if st != want || res != wantRes {
				t.Fatalf("window %d+%d: GOMAXPROCS=%d differs from GOMAXPROCS=1", window.warmup, window.measure, procs)
			}
		}
		if want.Protocol.Sent == 0 {
			t.Fatalf("window %d+%d injected nothing", window.warmup, window.measure)
		}
	}
}
