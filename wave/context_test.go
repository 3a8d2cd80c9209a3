package wave

import (
	"context"
	"errors"
	"testing"
	"time"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	cfg.Seed = 7
	return cfg
}

func TestRunContextCancelled(t *testing.T) {
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunContext(ctx, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Now() != 0 {
		t.Fatalf("pre-cancelled run advanced to cycle %d", s.Now())
	}
}

func TestRunLoadContextCancelStopsBetweenCycles(t *testing.T) {
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from the interval hook: the run must stop within one cycle of
	// the cancellation, long before the (enormous) measure budget.
	s.OnInterval(50, func(now int64) {
		if now >= 200 {
			cancel()
		}
	})
	_, err = s.RunLoadContext(ctx, Workload{Pattern: "uniform", Load: 0.05, FixedLength: 16}, 100, 1_000_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Now() < 200 || s.Now() > 251 {
		t.Fatalf("stopped at cycle %d, want within one cycle of 200..250", s.Now())
	}
	// The simulator must remain consistent and inspectable after the cut.
	_ = s.Stats()
}

func TestRunLoadContextDeadline(t *testing.T) {
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = s.RunLoadContext(ctx, Workload{Pattern: "uniform", Load: 0.05, FixedLength: 16}, 100, 1_000_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestOnIntervalObservesWithoutPerturbing: a hooked run produces Stats
// bit-identical to an unhooked one, and the hook fires on the expected
// cycle boundaries.
func TestOnIntervalObservesWithoutPerturbing(t *testing.T) {
	w := Workload{Pattern: "uniform", Load: 0.1, FixedLength: 32}
	run := func(hook bool) (Stats, []int64) {
		s, err := New(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		var fired []int64
		if hook {
			s.OnInterval(100, func(now int64) { fired = append(fired, now) })
		}
		if _, err := s.RunLoad(w, 200, 1000); err != nil {
			t.Fatal(err)
		}
		return s.Stats(), fired
	}
	plain, _ := run(false)
	hooked, fired := run(true)
	if plain != hooked {
		t.Fatalf("interval hook perturbed the run:\n%+v\n%+v", plain, hooked)
	}
	if len(fired) == 0 {
		t.Fatal("interval hook never fired")
	}
	for _, now := range fired {
		if now%100 != 0 {
			t.Fatalf("hook fired off-interval at cycle %d", now)
		}
	}
}

// TestClosedLoopObserverChain: an OnDelivered callback registered before
// RunClosedLoopContext sees every delivery (requests and replies).
func TestClosedLoopObserverChain(t *testing.T) {
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	s.OnDelivered(func(Delivery) { seen++ })
	res, err := s.RunClosedLoopContext(context.Background(), ClosedWorkload{
		Pattern: "transpose", ReqFlits: 4, ReplyFlits: 16,
		Outstanding: 1, Requests: 2,
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no round trips completed")
	}
	if seen == 0 {
		t.Fatal("chained observer saw no deliveries")
	}
}

func TestRunClosedLoopContextCancelled(t *testing.T) {
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.RunClosedLoopContext(ctx, ClosedWorkload{
		Pattern: "uniform", ReqFlits: 4, ReplyFlits: 16,
		Outstanding: 1, Requests: 1000,
	}, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
