package protocol

// Empirical validation of the paper's section 4 results. The static half
// (channel dependency graphs, MB-m termination) lives in internal/routing and
// internal/pcs; here the full protocol stack is stressed the way the proofs
// are quantified over: arbitrary traffic, concurrent Force probes, races
// between releases and teardowns. The watchdog converts "every message is
// delivered in finite time" into a checkable property.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// stress injects `msgs` random messages at rate ~`load` msgs/node/cycle and
// requires complete delivery under watchdog supervision.
func stress(t *testing.T, kind Kind, prm core.Params, topo topology.Topology, msgs int, maxLen int, seed uint64) *harness {
	t.Helper()
	h := newHarness(t, topo, prm, kind, Options{})
	rng := sim.NewRNG(seed)
	now := int64(0)
	sent := 0
	if kind == CARP {
		// The "compiler" opens circuits for the hot destination set upfront.
		for n := 0; n < topo.Nodes(); n++ {
			h.m.OpenCircuit(topology.Node(n), topology.Node((n+1)%topo.Nodes()))
		}
	}
	for sent < msgs {
		// Burst injection: a few messages per cycle across random nodes.
		for b := 0; b < 4 && sent < msgs; b++ {
			src := topology.Node(rng.Intn(topo.Nodes()))
			dst := topology.Node(rng.Intn(topo.Nodes()))
			h.m.Send(src, dst, 1+rng.Intn(maxLen), now, true)
			sent++
		}
		moved := h.m.Cycle(now)
		if err := h.wd.Check(now, moved, h.m.OldestAge(now), h.m.InFlight()); err != nil {
			t.Fatal(err)
		}
		now++
	}
	h.drain(t, &now, 2_000_000)
	if got := len(h.delivered); got != msgs {
		t.Fatalf("%s delivered %d of %d messages", kind, got, msgs)
	}
	return h
}

// TestTheorem1And3CLRP: CLRP is deadlock-free (Theorem 1) and livelock-free
// (Theorem 3) — every message delivered in finite time under heavy traffic
// with tiny caches and few channels, maximizing Force-phase contention.
func TestTheorem1And3CLRP(t *testing.T) {
	prm := core.DefaultParams()
	prm.NumSwitches = 2
	prm.CacheCapacity = 2 // brutal cache pressure
	prm.MaxMisroutes = 1
	topo := topology.MustCube([]int{4, 4}, true)
	h := stress(t, CLRP, prm, topo, 1500, 32, 42)
	if h.m.Ctr.DeliveredCircuit == 0 {
		t.Fatal("stress never used circuits — test not exercising the protocol")
	}
	// Leak checks: protocol quiescent => no reserved channels, no probes.
	if h.m.Fab.PCS.ActiveProbes() != 0 {
		t.Fatal("probes leaked")
	}
}

// TestTheorem2And4CARP: CARP is deadlock-free (Theorem 2) and livelock-free
// (Theorem 4).
func TestTheorem2And4CARP(t *testing.T) {
	prm := core.DefaultParams()
	prm.CacheCapacity = 4
	topo := topology.MustCube([]int{4, 4}, true)
	h := stress(t, CARP, prm, topo, 1500, 32, 43)
	if h.m.Ctr.DeliveredWormhole == 0 {
		t.Fatal("expected some wormhole traffic (unopened destinations)")
	}
}

// TestTheoremPCSBaseline: the per-message circuit baseline also always
// delivers (its probes never force, so failures fall back to wormhole).
func TestTheoremPCSBaseline(t *testing.T) {
	prm := core.DefaultParams()
	prm.CacheCapacity = 4
	topo := topology.MustCube([]int{4, 4}, true)
	stress(t, PCS, prm, topo, 800, 32, 44)
}

// TestTheoremWormholeBaseline: and so does plain wormhole switching.
func TestTheoremWormholeBaseline(t *testing.T) {
	stress(t, Wormhole, core.DefaultParams(), topology.MustCube([]int{4, 4}, true), 1500, 32, 45)
}

// TestTheoremCLRPOnMeshDOR exercises the deterministic-routing configuration
// on a mesh (different escape structure than the torus default).
func TestTheoremCLRPOnMeshDOR(t *testing.T) {
	prm := core.DefaultParams()
	prm.Routing = "dor"
	prm.NumVCs = 2
	prm.CacheCapacity = 3
	stress(t, CLRP, prm, topology.MustCube([]int{4, 4}, false), 1200, 24, 46)
}

// TestTheoremSingleSwitchNoVC is the paper's "simplest version of wave
// router" (k=1): minimal wave resources maximize Force-phase collisions.
func TestTheoremSingleSwitch(t *testing.T) {
	prm := core.DefaultParams()
	prm.NumSwitches = 1
	prm.MaxMisroutes = 0
	prm.CacheCapacity = 2
	stress(t, CLRP, prm, topology.MustCube([]int{4, 4}, true), 1000, 16, 47)
}

// TestTheoremLongMessages: long transfers keep circuits in-use for extended
// periods, stressing the In-use/release interaction.
func TestTheoremLongMessages(t *testing.T) {
	prm := core.DefaultParams()
	prm.CacheCapacity = 2
	stress(t, CLRP, prm, topology.MustCube([]int{4, 4}, true), 300, 256, 48)
}

// TestDeterministicProtocolReplay: two identical runs deliver identical
// results, cycle for cycle — the whole stack is deterministic.
func TestDeterministicProtocolReplay(t *testing.T) {
	for _, kind := range []Kind{CLRP, CARP, PCS, Wormhole} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			sig := func() string {
				prm := core.DefaultParams()
				prm.CacheCapacity = 2
				topo := topology.MustCube([]int{4, 4}, true)
				h := stress(t, kind, prm, topo, 400, 32, 99)
				sum, circ := int64(0), 0
				for id, at := range h.delivered {
					sum += at * int64(id%17+1)
					if h.viaCirc[id] {
						circ++
					}
				}
				return fmt.Sprintf("%d/%d/%+v", sum, circ, h.m.Ctr)
			}
			if a, b := sig(), sig(); a != b {
				t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestHotspotForceStorm aims every node's first message at one victim node,
// then immediately at a second, creating maximal concurrent Force probes
// competing for the same channels.
func TestHotspotForceStorm(t *testing.T) {
	prm := core.DefaultParams()
	prm.NumSwitches = 1
	prm.CacheCapacity = 2
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, prm, CLRP, Options{})
	now := int64(0)
	for n := 0; n < topo.Nodes(); n++ {
		if n != 5 {
			h.m.Send(topology.Node(n), 5, 64, now, true)
		}
		if n != 10 {
			h.m.Send(topology.Node(n), 10, 64, now, true)
		}
	}
	h.drain(t, &now, 2_000_000)
	if len(h.delivered) != 30 {
		t.Fatalf("delivered %d of 30", len(h.delivered))
	}
}
