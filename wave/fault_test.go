package wave

import (
	"testing"

	"repro/internal/topology"
)

// isolationEvents builds explicit FaultEvents disabling every outgoing wave
// channel of node n at the given cycle — the adversarial scenario for the
// retry path, since no probe can leave the node until repair.
func isolationEvents(t *testing.T, cfg Config, n int, cycle, repair int64) []FaultEvent {
	t.Helper()
	topo, err := cfg.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	var evs []FaultEvent
	for port := 0; port < topo.OutDegree(topology.Node(n)); port++ {
		link, ok := topo.OutSlot(topology.Node(n), port)
		if !ok {
			continue
		}
		for sw := 0; sw < cfg.NumSwitches; sw++ {
			evs = append(evs, FaultEvent{Cycle: cycle, Link: int(link), Switch: sw, Repair: repair})
		}
	}
	return evs
}

// TestDynamicFaultDeterminism is the acceptance scenario of the dynamic-fault
// subsystem: a 16x16 torus under CLRP with 24 transient mid-run faults and
// retry/backoff armed must (a) deliver every injected message — RunLoad
// drains to empty or errors — and (b) produce byte-identical Stats and
// Results for the activity-tracking engine vs the full-scan oracle. Faults,
// repairs and retries all ride the event queue, which is what makes the
// identity hold.
func TestDynamicFaultDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{16, 16}}
	cfg.Protocol = "clrp"
	cfg.Seed = 42
	cfg.FaultSchedule = FaultScheduleConfig{Count: 24, Start: 600, Spacing: 40, Repair: 350}
	cfg.ProbeRetryLimit = 3
	cfg.RetryBackoffCycles = 32
	w := Workload{Pattern: "uniform", Load: 0.05, FixedLength: 48}

	serStats, serRes := runForStats(t, cfg, w, 500, 2500)
	oracle := cfg
	oracle.disableActivityTracking = true
	oraStats, oraRes := runForStats(t, oracle, w, 500, 2500)

	if serStats != oraStats {
		t.Errorf("faulted Stats diverged from full-scan oracle:\n active: %+v\n oracle: %+v", serStats, oraStats)
	}
	if serRes != oraRes {
		t.Errorf("faulted Result diverged from full-scan oracle:\n active: %+v\n oracle: %+v", serRes, oraRes)
	}
	if serStats.Probes.FaultsInjected != 24 || serStats.Probes.FaultRepairs != 24 {
		t.Errorf("schedule not fully executed: injected=%d repairs=%d, want 24/24",
			serStats.Probes.FaultsInjected, serStats.Probes.FaultRepairs)
	}
	if serRes.Delivered == 0 {
		t.Error("no messages delivered in the measurement window")
	}
}

// TestDynamicFaultRetryRecovery isolates a sender behind transient faults on
// every outgoing wave channel: each setup attempt fails until the repair
// lands, the deterministic backoff keeps re-arming it, and the message must
// ultimately go through by circuit — no wormhole fallback.
func TestDynamicFaultRetryRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "mesh", Radix: []int{4, 4}}
	cfg.Protocol = "clrp"
	cfg.Seed = 9
	cfg.ProbeRetryLimit = 8
	cfg.RetryBackoffCycles = 16
	cfg.FaultSchedule.Events = isolationEvents(t, cfg, 0, 1, 400)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil { // faults are in, repair is 396 cycles out
		t.Fatal(err)
	}
	s.Send(0, 15, 64, true)
	if err := s.Drain(20_000); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Protocol.SetupRetries == 0 {
		t.Error("isolated sender recovered without any retry — faults never bit")
	}
	if st.Protocol.FallbackWormhole != 0 {
		t.Errorf("transient isolation fell back to wormhole (%d) instead of retrying through",
			st.Protocol.FallbackWormhole)
	}
	if st.CircuitMsgsDelivered != 1 {
		t.Errorf("circuit deliveries = %d, want 1", st.CircuitMsgsDelivered)
	}
	wantFaults := int64(len(cfg.FaultSchedule.Events))
	if st.Probes.FaultsInjected != wantFaults || st.Probes.FaultRepairs != wantFaults {
		t.Errorf("injected=%d repairs=%d, want %d each",
			st.Probes.FaultsInjected, st.Probes.FaultRepairs, wantFaults)
	}
}

// TestDynamicFaultPermanentFallback is the degradation half of the recovery
// contract: with the sender's wave channels permanently dead, the bounded
// retry budget exhausts and CLRP must still deliver the message — phase 3,
// over the (healthy) wormhole substrate.
func TestDynamicFaultPermanentFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "mesh", Radix: []int{4, 4}}
	cfg.Protocol = "clrp"
	cfg.Seed = 9
	cfg.ProbeRetryLimit = 2
	cfg.RetryBackoffCycles = 4
	cfg.FaultSchedule.Events = isolationEvents(t, cfg, 0, 1, 0) // permanent

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	s.Send(0, 15, 64, true)
	if err := s.Drain(20_000); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Protocol.SetupRetries != 2 {
		t.Errorf("SetupRetries = %d, want the full budget of 2", st.Protocol.SetupRetries)
	}
	if st.Protocol.FallbackWormhole != 1 {
		t.Errorf("FallbackWormhole = %d, want 1", st.Protocol.FallbackWormhole)
	}
	if st.WHMsgsDelivered != 1 || st.CircuitMsgsDelivered != 0 {
		t.Errorf("delivery split WH=%d circuit=%d, want 1/0",
			st.WHMsgsDelivered, st.CircuitMsgsDelivered)
	}
	if st.Probes.FaultRepairs != 0 {
		t.Errorf("permanent faults were repaired: %d", st.Probes.FaultRepairs)
	}
}

// TestDynamicFaultDuringTransferDrain pins faults that fire while Drain
// waits out a long circuit transfer: the fabric is otherwise idle, so only
// the event queue carries the fault (and its repair) to its exact cycle,
// and the run must stay bit-identical to the full-scan engine.
func TestDynamicFaultDuringTransferDrain(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	// A channel far from the 0->3 circuit's straight-line path.
	link, ok := topo.OutSlot(15, int(topology.Minus))
	if !ok {
		t.Fatal("no out-link from node 15")
	}
	run := func(fullscan bool) Stats {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "mesh", Radix: []int{4, 4}}
		cfg.Protocol = "clrp"
		cfg.Seed = 5
		cfg.disableActivityTracking = fullscan
		cfg.FaultSchedule.Events = []FaultEvent{{Cycle: 200, Link: int(link), Switch: 1, Repair: 100}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Send(0, 3, 4096, true) // long transfer: delivery event far in the future
		if err := s.Drain(100_000); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	active := run(false)
	oracle := run(true)
	if active != oracle {
		t.Errorf("active-set run diverged from full scan:\n active: %+v\n oracle: %+v", active, oracle)
	}
	if active.Probes.FaultsInjected != 1 || active.Probes.FaultRepairs != 1 {
		t.Errorf("fault event did not fire during the drain: injected=%d repairs=%d, want 1/1",
			active.Probes.FaultsInjected, active.Probes.FaultRepairs)
	}
}
