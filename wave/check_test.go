package wave

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestWatchdogNamesBrokenInvariant: when the watchdog trips, its error says
// which invariant the simulator's state breaks before it says deadlock,
// and carries none when the state is consistent.
func TestWatchdogNamesBrokenInvariant(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		cfg.Protocol = "wormhole"
		cfg.WatchdogMaxAge = 30 // a 200-flit message cannot arrive in time
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Send(0, 10, 200, false)
		if err := s.Run(5); err != nil {
			t.Fatal(err)
		}
		if err := s.Check(); err != nil {
			t.Fatalf("healthy run: %v", err)
		}
		if corrupt {
			s.mgr.Fab.WH.FlitsDelivered++
		}
		err = s.Run(1000)
		var stuck *sim.ErrStuck
		if !errors.As(err, &stuck) {
			t.Fatalf("corrupt=%v: Run = %v, want the watchdog to trip", corrupt, err)
		}
		if !corrupt {
			if stuck.Invariant != nil {
				t.Fatalf("consistent state reported a broken invariant: %v", stuck.Invariant)
			}
			continue
		}
		msg := err.Error()
		if stuck.Invariant == nil || !strings.Contains(msg, "broken invariant: core: flit balance") ||
			strings.Index(msg, "broken invariant") > strings.Index(msg, "delivery bound") {
			t.Fatalf("watchdog error %q does not name the broken flit balance first", msg)
		}
	}
}
