package protocol

// Model-based random-operations testing: arbitrary interleavings of every
// protocol API call (sends of every size, CARP opens/closes including
// invalid ones, bursts, idle gaps) must always terminate with full delivery
// and coherent state. Seeds are fixed, so failures replay exactly.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// randomOps drives `ops` random operations against one manager and returns
// the number of messages sent.
func randomOps(t *testing.T, h *harness, topo topology.Topology, kind Kind, seed uint64, ops int) int {
	t.Helper()
	rng := sim.NewRNG(seed)
	now := int64(0)
	sent := 0
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // short send
			h.m.Send(topology.Node(rng.Intn(topo.Nodes())), topology.Node(rng.Intn(topo.Nodes())),
				1+rng.Intn(8), now, rng.Intn(2) == 0)
			sent++
		case 4, 5: // long send
			h.m.Send(topology.Node(rng.Intn(topo.Nodes())), topology.Node(rng.Intn(topo.Nodes())),
				64+rng.Intn(192), now, true)
			sent++
		case 6: // CARP open (no-op panic-free on CARP only)
			if kind == CARP {
				h.m.OpenCircuit(topology.Node(rng.Intn(topo.Nodes())), topology.Node(rng.Intn(topo.Nodes())))
			}
		case 7: // CARP close, possibly of something never opened
			if kind == CARP {
				h.m.CloseCircuit(topology.Node(rng.Intn(topo.Nodes())), topology.Node(rng.Intn(topo.Nodes())))
			}
		case 8: // burst
			src := topology.Node(rng.Intn(topo.Nodes()))
			dst := topology.Node(rng.Intn(topo.Nodes()))
			for b := 0; b < 5; b++ {
				h.m.Send(src, dst, 1+rng.Intn(32), now, true)
				sent++
			}
		case 9: // idle gap
			for g := 0; g < rng.Intn(50); g++ {
				h.m.Cycle(now)
				now++
			}
		}
		moved := h.m.Cycle(now)
		now++
		if err := h.wd.Check(now, moved, h.m.OldestAge(now), h.m.InFlight()); err != nil {
			t.Fatal(err)
		}
		checkSlotWaiters(t, h.m)
		checkOldestAge(t, h.m, now)
	}
	h.drain(t, &now, 2_000_000)
	// Settle trailing acks/teardowns, then check state.
	for i := 0; i < 300; i++ {
		h.m.Cycle(now)
		now++
	}
	return sent
}

// checkSlotWaiters fails unless every node's slotWaiters index lists
// exactly the destinations whose state has wantSlot set, in ascending order.
func checkSlotWaiters(t *testing.T, m *Manager) {
	t.Helper()
	for n, dsm := range m.dests {
		var want []topology.Node
		for dst, ds := range dsm {
			if ds.wantSlot {
				want = append(want, dst)
			}
		}
		slices.Sort(want)
		if got := m.slotWaiters[n]; !slices.Equal(got, want) {
			t.Fatalf("node %d: slot-waiter index %v, wantSlot flags set for %v", n, got, want)
		}
	}
}

// checkOldestAge fails unless OldestAge, which follows a cursor over the
// in-flight window, equals the largest age of an undelivered entry, and
// InFlight counts those entries.
func checkOldestAge(t *testing.T, m *Manager, now int64) {
	t.Helper()
	var want int64
	live := 0
	for _, at := range m.sent[m.head:] {
		if at >= 0 {
			want = max(want, now-at)
			live++
		}
	}
	if got := m.OldestAge(now); got != want {
		t.Fatalf("cycle %d: OldestAge %d, oldest in-flight message is %d cycles old", now, got, want)
	}
	if m.InFlight() != live {
		t.Fatalf("cycle %d: InFlight %d, window holds %d undelivered messages", now, m.InFlight(), live)
	}
}

func TestRandomOperationInterleavings(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	for _, kind := range []Kind{CLRP, CARP, PCS} {
		for _, seed := range []uint64{1, 2, 3} {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s-seed%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				prm := core.DefaultParams()
				prm.CacheCapacity = 2 // maximal churn
				h := newHarness(t, topo, prm, kind, Options{})
				sent := randomOps(t, h, topo, kind, seed, 300)
				if len(h.delivered) != sent {
					t.Fatalf("delivered %d of %d", len(h.delivered), sent)
				}
				// State coherence after the storm.
				for n := 0; n < topo.Nodes(); n++ {
					for _, e := range h.m.Fab.Cache(topology.Node(n)).Entries() {
						if e.State == circuit.Established && e.InUse {
							t.Fatalf("node %d: idle network with in-use circuit to %d", n, e.Dest)
						}
					}
				}
				if h.m.Fab.PCS.ActiveProbes() != 0 {
					t.Fatal("probes leaked")
				}
				checkCrossLayer(t, h, topo)
			})
		}
	}
}

// TestRandomOpsWithFaultsAndOptions mixes static faults and CLRP option
// variants into the random-operation storm.
func TestRandomOpsWithFaultsAndOptions(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	variants := []Options{
		{},
		{ForceFirst: true},
		{SinglePhase2Switch: true},
		{MinCircuitFlits: 16},
		{NoSwitchSpread: true},
	}
	for vi, opt := range variants {
		vi, opt := vi, opt
		t.Run(fmt.Sprintf("variant%d", vi), func(t *testing.T) {
			t.Parallel()
			prm := core.DefaultParams()
			prm.CacheCapacity = 3
			prm.InitialBufFlits = 32
			prm.ReallocPenalty = 25
			h := newHarness(t, topo, prm, CLRP, opt)
			// Fault a slice of wave channels before traffic.
			for id := 0; id < topo.NumLinkSlots(); id += 5 {
				if _, ok := topo.LinkByID(topology.LinkID(id)); ok {
					h.m.Fab.PCS.InjectFault(pcsChan(topology.LinkID(id), vi%prm.NumSwitches))
				}
			}
			sent := randomOps(t, h, topo, CLRP, uint64(100+vi), 250)
			if len(h.delivered) != sent {
				t.Fatalf("delivered %d of %d", len(h.delivered), sent)
			}
		})
	}
}

// pcsChan builds a pcs.Channel without importing pcs at every call site.
func pcsChan(link topology.LinkID, sw int) pcs.Channel {
	return pcs.Channel{Link: link, Switch: sw}
}

// TestSnapshotRebuildsSlotWaiters checkpoints a CLRP manager while some
// destinations wait for a cache slot and restores it into a fresh manager:
// the slot-waiter index is not in the snapshot, so the decoder must rebuild
// it from the wantSlot flags, and the restored run must then drain.
func TestSnapshotRebuildsSlotWaiters(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	prm := core.DefaultParams()
	prm.CacheCapacity = 2
	h := newHarness(t, topo, prm, CLRP, Options{})
	rng := sim.NewRNG(7)
	now, sent, waiting := int64(0), 0, 0
	for ; now < 5000 && waiting < 2; now++ {
		h.m.Send(topology.Node(rng.Intn(4)), topology.Node(4+rng.Intn(12)), 64, now, true)
		sent++
		h.m.Cycle(now)
		waiting = 0
		for _, w := range h.m.slotWaiters {
			waiting += len(w)
		}
	}
	if waiting < 2 {
		t.Fatal("no two destinations ever waited for a cache slot together")
	}
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.m.State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	r := newHarness(t, topo, prm, CLRP, Options{})
	dec, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.State(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	checkSlotWaiters(t, r.m)
	if !slices.EqualFunc(r.m.slotWaiters, h.m.slotWaiters, slices.Equal[[]topology.Node]) {
		t.Fatalf("restored slot waiters %v, checkpointed %v", r.m.slotWaiters, h.m.slotWaiters)
	}
	r.drain(t, &now, 2_000_000)
	if got := len(r.delivered) + len(h.delivered); got != sent {
		t.Fatalf("delivered %d of %d after restore", got, sent)
	}
}

// TestInFlightWindowStaysProportional: the in-flight window holds one entry
// per message from the oldest in flight to the newest sent, so its array
// must track that span, not the messages ever sent. A thousand short
// messages deliver one by one, then a long message stays in flight while
// thousands of short ones stream past it between other nodes; the array's
// capacity stays within twice the window (plus slack for append's first
// growth steps) throughout, and the window empties once the long message
// delivers.
func TestInFlightWindowStaysProportional(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, core.DefaultParams(), Wormhole, Options{})
	check := func(now int64, oldest flit.MsgID) {
		t.Helper()
		window := 0
		if h.m.InFlight() > 0 {
			window = int(h.m.nextMsg-oldest) + 1
		}
		if c := cap(h.m.sent); c > 2*window+16 {
			t.Fatalf("cycle %d: window of %d messages holds an array of capacity %d", now, window, c)
		}
	}
	now := int64(0)
	for i := 0; i < 1000; i++ {
		id := h.m.Send(topology.Node(8+i%8), topology.Node(8+(i+3)%8), 4, now, false)
		h.drain(t, &now, 1000)
		check(now, id+1)
	}
	// Rows 2 and 3 (nodes 8..15) talk among themselves on minimal paths
	// that never touch row 0, where the long message streams.
	long := h.m.Send(0, 2, 5000, now, false)
	for i := 0; i < 3000; i++ {
		h.m.Send(topology.Node(8+i%8), topology.Node(8+(i+5)%8), 4, now, false)
		h.m.Cycle(now)
		checkOldestAge(t, h.m, now)
		check(now, long)
		now++
	}
	if _, ok := h.delivered[long]; ok || h.m.Ctr.DeliveredWormhole < 3000 {
		t.Fatalf("long message delivered %v, %d messages delivered; want it still in flight after 3000 short ones", ok, h.m.Ctr.DeliveredWormhole)
	}
	h.drain(t, &now, 100_000)
	h.m.OldestAge(now)
	if w := len(h.m.sent) - h.m.head; w != 0 || h.m.InFlight() != 0 {
		t.Fatalf("drained manager: window of %d entries, %d in flight", w, h.m.InFlight())
	}
}

// TestRestoreRefusesMalformedInFlightWindow: the in-flight messages decode
// as ascending (ID, inject time) pairs within the issued IDs, and the
// window is rebuilt from them; a payload whose IDs repeat, go backwards,
// fall outside 1..nextMsg or carry a negative inject time is refused.
func TestRestoreRefusesMalformedInFlightWindow(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	for _, tc := range []struct {
		name  string
		pairs [][2]int64
		want  string
	}{
		{"out of order", [][2]int64{{2, 5}, {1, 3}}, "go backwards"},
		{"repeated", [][2]int64{{1, 3}, {1, 3}}, "repeat"},
		{"zero", [][2]int64{{0, 3}}, "outside the issued IDs"},
		{"past nextMsg", [][2]int64{{1, 3}, {4, 3}}, "outside the issued IDs"},
		{"negative time", [][2]int64{{2, -1}}, "injected at cycle -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc, err := snapshot.NewEncoder(&buf)
			if err != nil {
				t.Fatal(err)
			}
			nextMsg, n := int64(3), len(tc.pairs)
			snapshot.I64(enc, &nextMsg)
			enc.Count(&n)
			for _, p := range tc.pairs {
				snapshot.I64(enc, &p[0])
				snapshot.I64(enc, &p[1])
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			dec, err := snapshot.Open(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			h := newHarness(t, topo, core.DefaultParams(), CLRP, Options{})
			if err := h.m.State(dec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
