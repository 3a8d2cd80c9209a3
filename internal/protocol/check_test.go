package protocol

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestCheckNamesEachClause corrupts the in-flight window of a live CLRP
// manager — messages queued for circuits, on circuits and in the wormhole
// engine, some delivered — and requires Check to name the clause.
func TestCheckNamesEachClause(t *testing.T) {
	live := func(t *testing.T) *harness {
		h := newHarness(t, topology.MustCube([]int{4, 4}, true), prm44(), CLRP, Options{})
		for i := 0; i < 60; i++ {
			h.m.Send(topology.Node(i%16), topology.Node((i*5+3)%16), 8+i%40, int64(i), true)
			h.m.Cycle(int64(i))
		}
		if err := h.m.Check(); err != nil {
			t.Fatal(err)
		}
		if h.m.Ctr.DeliveredWormhole+h.m.Ctr.DeliveredCircuit == 0 || h.m.live == 0 {
			t.Fatal("want both delivered and in-flight messages")
		}
		return h
	}
	t.Run("delivered message marked live", func(t *testing.T) {
		m := live(t).m
		i := m.head
		for m.sent[i] >= 0 {
			i++
		}
		m.sent[i], m.live = 3, m.live+1
		if err := m.Check(); err == nil || !strings.Contains(err.Error(), "no layer holds") {
			t.Fatalf("Check = %v, want the window to hold a message no layer holds", err)
		}
	})
	t.Run("live miscounted", func(t *testing.T) {
		m := live(t).m
		m.live--
		if err := m.Check(); err == nil || !strings.Contains(err.Error(), "live counts") {
			t.Fatalf("Check = %v, want live to miscount the window", err)
		}
	})
	t.Run("message held twice", func(t *testing.T) {
		m := live(t).m
		for n := range m.dests {
			for _, ds := range m.dests[n] {
				if q := ds.pending(); len(q) > 0 {
					m.enqueue(ds, q[0])
					if err := m.Check(); err == nil || !strings.Contains(err.Error(), "held twice") {
						t.Fatalf("Check = %v, want a message held twice", err)
					}
					return
				}
			}
		}
		t.Fatal("no message queued for a circuit")
	})
}
