package protocol

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/sim"
	"repro/internal/topology"
)

type harness struct {
	m         *Manager
	delivered map[flit.MsgID]int64
	viaCirc   map[flit.MsgID]bool
	wd        *sim.Watchdog
}

func newHarness(t *testing.T, topo topology.Topology, prm core.Params, kind Kind, opt Options) *harness {
	t.Helper()
	h := &harness{
		delivered: map[flit.MsgID]int64{},
		viaCirc:   map[flit.MsgID]bool{},
		wd:        &sim.Watchdog{MaxAge: 500_000, StallWindow: 20_000},
	}
	m, err := New(topo, prm, kind, opt, Hooks{
		Delivered: func(msg flit.Message, now int64, viaCircuit bool) {
			h.delivered[msg.ID] = now
			h.viaCirc[msg.ID] = viaCircuit
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.m = m
	return h
}

// drain runs cycles (starting at *now) until all in-flight work completes,
// with the watchdog as deadlock/livelock oracle and every layer's Check
// every 64 cycles.
func (h *harness) drain(t *testing.T, now *int64, maxCycles int64) {
	t.Helper()
	deadline := *now + maxCycles
	for h.m.InFlight() > 0 {
		moved := h.m.Cycle(*now)
		if err := h.wd.Check(*now, moved, h.m.OldestAge(*now), h.m.InFlight()); err != nil {
			t.Fatal(err)
		}
		if *now%64 == 0 {
			f := h.m.Fab
			if err := errors.Join(f.WH.Check(), f.PCS.Check(), f.Check(), h.m.Check()); err != nil {
				t.Fatalf("cycle %d: %v", *now, err)
			}
		}
		*now++
		if *now > deadline {
			t.Fatalf("did not drain: %d in flight after %d cycles", h.m.InFlight(), maxCycles)
		}
	}
}

func prm44() core.Params {
	p := core.DefaultParams()
	return p
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"wormhole", "clrp", "carp", "pcs"} {
		if k, err := ParseKind(s); err != nil || string(k) != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseKind("virtualcutthrough"); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestNewRejectsBadKind(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	if _, err := New(topo, prm44(), Kind("nope"), Options{}, Hooks{}); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestWormholeProtocolDelivers(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), Wormhole, Options{})
	now := int64(0)
	id := h.m.Send(0, 10, 16, now, false)
	h.drain(t, &now, 10_000)
	if _, ok := h.delivered[id]; !ok {
		t.Fatal("not delivered")
	}
	if h.viaCirc[id] {
		t.Fatal("wormhole protocol used a circuit")
	}
	if h.m.Ctr.DeliveredWormhole != 1 || h.m.Ctr.DeliveredCircuit != 0 {
		t.Fatalf("counters: %+v", h.m.Ctr)
	}
}

func TestCLRPFirstSendEstablishesCircuit(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CLRP, Options{})
	now := int64(0)
	id := h.m.Send(0, 10, 64, now, true)
	h.drain(t, &now, 10_000)
	if !h.viaCirc[id] {
		t.Fatal("CLRP first send did not use a circuit")
	}
	if h.m.Ctr.SetupsOK != 1 {
		t.Fatalf("setups: %+v", h.m.Ctr)
	}
	// The circuit stays cached.
	if _, ok := h.m.Fab.Cache(0).Lookup(10, false); !ok {
		t.Fatal("circuit not cached after use")
	}
}

func TestCLRPSecondSendHitsCache(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CLRP, Options{})
	now := int64(0)
	h.m.Send(0, 10, 64, now, true)
	h.drain(t, &now, 10_000)
	setups := h.m.Ctr.SetupsStarted
	id2 := h.m.Send(0, 10, 64, now, true)
	h.drain(t, &now, 10_000)
	if h.m.Ctr.SetupsStarted != setups {
		t.Fatal("cache hit still launched a probe")
	}
	if !h.viaCirc[id2] {
		t.Fatal("second send did not reuse the circuit")
	}
	if h.m.Fab.Cache(0).Hits == 0 {
		t.Fatal("no cache hit counted")
	}
}

func TestCLRPInOrderOnCircuit(t *testing.T) {
	// Paper: "once a circuit has been established between two nodes, in-order
	// delivery is guaranteed". Back-to-back sends must arrive in order.
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CLRP, Options{})
	now := int64(0)
	var ids []flit.MsgID
	for i := 0; i < 10; i++ {
		ids = append(ids, h.m.Send(0, 10, 32, now, true))
	}
	h.drain(t, &now, 100_000)
	var last int64 = -1
	for _, id := range ids {
		if !h.viaCirc[id] {
			t.Fatalf("message %d fell back to wormhole", id)
		}
		if h.delivered[id] <= last {
			t.Fatalf("out of order circuit delivery: %v", ids)
		}
		last = h.delivered[id]
	}
}

func TestCLRPSelfSend(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, prm44(), CLRP, Options{})
	now := int64(0)
	h.m.Send(5, 5, 8, now, true)
	h.drain(t, &now, 1_000)
	if h.m.Ctr.SetupsStarted != 0 {
		t.Fatal("self-send attempted a circuit")
	}
}

func TestSendRejectsEmptyMessage(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, prm44(), CLRP, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length send accepted")
		}
	}()
	h.m.Send(0, 1, 0, 0, true)
}

func TestCLRPReplacementOnFullCache(t *testing.T) {
	// Cache capacity 2, three destinations: the third send must evict one
	// circuit (via teardown) and still deliver everything by circuit.
	topo := topology.MustCube([]int{4, 4}, true)
	prm := prm44()
	prm.CacheCapacity = 2
	h := newHarness(t, topo, prm, CLRP, Options{})
	now := int64(0)
	h.m.Send(0, 5, 32, now, true)
	h.drain(t, &now, 10_000)
	h.m.Send(0, 10, 32, now, true)
	h.drain(t, &now, 10_000)
	if h.m.Fab.Cache(0).Len() != 2 {
		t.Fatalf("cache len = %d", h.m.Fab.Cache(0).Len())
	}
	id3 := h.m.Send(0, 15, 32, now, true)
	h.drain(t, &now, 10_000)
	if !h.viaCirc[id3] {
		t.Fatal("third destination did not get a circuit")
	}
	if h.m.Fab.Cache(0).Len() != 2 {
		t.Fatalf("cache exceeded capacity: %d", h.m.Fab.Cache(0).Len())
	}
	if h.m.Fab.Cache(0).Evictions == 0 {
		t.Fatal("no eviction recorded")
	}
}

func TestCLRPForcePhaseStealsChannels(t *testing.T) {
	// Saturate node 0's wave outputs with circuits from node 0, then demand
	// one more destination: phase two must tear a victim down rather than
	// fall back, and the new message still travels by circuit.
	topo := topology.MustCube([]int{4, 4}, false)
	prm := prm44()
	prm.NumSwitches = 1
	prm.MaxMisroutes = 0
	prm.Routing = "dor"
	prm.CacheCapacity = 8
	h := newHarness(t, topo, prm, CLRP, Options{})
	now := int64(0)
	// Node 0 has 2 outputs (dim0+, dim1+). Two circuits exhaust them.
	h.m.Send(0, 3, 16, now, true) // straight along dim 0
	h.drain(t, &now, 10_000)
	h.m.Send(0, 12, 16, now, true) // straight along dim 1
	h.drain(t, &now, 10_000)
	if got := h.m.Fab.PCS.NumCircuits(); got != 2 {
		t.Fatalf("expected 2 circuits, have %d", got)
	}
	id := h.m.Send(0, 10, 16, now, true) // needs one of the occupied outputs
	h.drain(t, &now, 50_000)
	if !h.viaCirc[id] {
		t.Fatal("force phase did not produce a circuit")
	}
	if h.m.Ctr.Phase2Entered == 0 {
		t.Fatal("phase 2 never entered")
	}
	if h.m.Ctr.Phase3Entered != 0 {
		t.Fatal("fell through to phase 3 unexpectedly")
	}
}

func TestCLRPPhase3WormholeFallback(t *testing.T) {
	// Fault every wave channel out of the source: no circuit can ever be
	// established, so messages must be delivered by wormhole (phase three) —
	// the "always able to deliver messages" guarantee.
	topo := topology.MustCube([]int{4, 4}, false)
	prm := prm44()
	h := newHarness(t, topo, prm, CLRP, Options{})
	for dim := 0; dim < topo.Dims(); dim++ {
		for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
			if link, ok := topo.OutSlot(0, 2*dim+int(dir)); ok {
				for sw := 0; sw < prm.NumSwitches; sw++ {
					h.m.Fab.PCS.InjectFault(pcs.Channel{Link: link, Switch: sw})
				}
			}
		}
	}
	now := int64(0)
	id := h.m.Send(0, 10, 32, now, true)
	h.drain(t, &now, 50_000)
	if h.viaCirc[id] {
		t.Fatal("message used a circuit through faulty channels")
	}
	if h.m.Ctr.Phase3Entered != 1 || h.m.Ctr.FallbackWormhole != 1 {
		t.Fatalf("fallback accounting: %+v", h.m.Ctr)
	}
	// The failed entry must not linger in the cache.
	if _, ok := h.m.Fab.Cache(0).Peek(10); ok {
		t.Fatal("failed setup left a cache entry")
	}
}

func TestCARPOpenSendClose(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CARP, Options{})
	now := int64(0)
	h.m.OpenCircuit(0, 10)
	ids := []flit.MsgID{
		h.m.Send(0, 10, 64, now, true),
		h.m.Send(0, 10, 64, now, true),
	}
	h.drain(t, &now, 50_000)
	for _, id := range ids {
		if !h.viaCirc[id] {
			t.Fatalf("message %d not on circuit", id)
		}
	}
	h.m.CloseCircuit(0, 10)
	for i := 0; i < 100; i++ {
		h.m.Cycle(now)
		now++
	}
	if _, ok := h.m.Fab.Cache(0).Peek(10); ok {
		t.Fatal("circuit survived CloseCircuit")
	}
	if h.m.Fab.PCS.NumCircuits() != 0 {
		t.Fatal("PCS registry not empty after close")
	}
}

func TestCARPCloseWaitsForQueue(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CARP, Options{})
	now := int64(0)
	h.m.OpenCircuit(0, 10)
	ids := []flit.MsgID{
		h.m.Send(0, 10, 200, now, true),
		h.m.Send(0, 10, 200, now, true),
	}
	h.m.CloseCircuit(0, 10) // close requested while messages still queued
	h.drain(t, &now, 50_000)
	for _, id := range ids {
		if !h.viaCirc[id] {
			t.Fatal("queued message lost its circuit on early close")
		}
	}
	for i := 0; i < 100; i++ {
		h.m.Cycle(now)
		now++
	}
	if _, ok := h.m.Fab.Cache(0).Peek(10); ok {
		t.Fatal("close request forgotten")
	}
}

func TestCARPWithoutOpenUsesWormhole(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CARP, Options{})
	now := int64(0)
	id := h.m.Send(0, 10, 16, now, true)
	h.drain(t, &now, 10_000)
	if h.viaCirc[id] {
		t.Fatal("CARP established a circuit without OpenCircuit")
	}
	if h.m.Ctr.FallbackWormhole != 1 {
		t.Fatalf("fallback not counted: %+v", h.m.Ctr)
	}
}

func TestCARPShortMessagesBypassCircuit(t *testing.T) {
	// wantCircuit=false models the compiler routing short messages through
	// wormhole even when a circuit exists.
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CARP, Options{})
	now := int64(0)
	h.m.OpenCircuit(0, 10)
	h.drain(t, &now, 10_000) // nothing in flight; just advance setup
	for i := 0; i < 50; i++ {
		h.m.Cycle(now)
		now++
	}
	id := h.m.Send(0, 10, 4, now, false)
	h.drain(t, &now, 10_000)
	if h.viaCirc[id] {
		t.Fatal("wantCircuit=false message used the circuit")
	}
}

func TestCARPInstructionsPanicOnOtherKinds(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, prm44(), CLRP, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("OpenCircuit on CLRP did not panic")
		}
	}()
	h.m.OpenCircuit(0, 1)
}

func TestPCSPerMessageCircuit(t *testing.T) {
	// The per-message baseline: every message sets up, transfers, tears down.
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), PCS, Options{})
	now := int64(0)
	id1 := h.m.Send(0, 10, 64, now, true)
	h.drain(t, &now, 10_000)
	for i := 0; i < 50; i++ { // let the teardown finish
		h.m.Cycle(now)
		now++
	}
	if !h.viaCirc[id1] {
		t.Fatal("pcs message not on circuit")
	}
	if h.m.Fab.PCS.NumCircuits() != 0 {
		t.Fatal("pcs circuit not torn down after message")
	}
	id2 := h.m.Send(0, 10, 64, now, true)
	h.drain(t, &now, 10_000)
	if !h.viaCirc[id2] {
		t.Fatal("second pcs message not on circuit")
	}
	if h.m.Ctr.SetupsStarted != 2 {
		t.Fatalf("pcs reused a circuit: %+v", h.m.Ctr)
	}
}

func TestCLRPAblationForceFirst(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm44(), CLRP, Options{ForceFirst: true})
	now := int64(0)
	id := h.m.Send(0, 10, 32, now, true)
	h.drain(t, &now, 10_000)
	if !h.viaCirc[id] {
		t.Fatal("force-first setup failed")
	}
	if h.m.Ctr.Phase2Entered != 1 {
		t.Fatalf("force-first did not start in phase 2: %+v", h.m.Ctr)
	}
}
