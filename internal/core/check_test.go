package core

import (
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/topology"
)

// TestCheckFlitBalance runs wormhole and circuit traffic side by side and
// holds the flit balance after every cycle; a delivery counted twice, or
// one lost, breaks it by name.
func TestCheckFlitBalance(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	f := newFabric(t, topo, DefaultParams(), Hooks{})
	var now int64
	entry := establish(t, f, &now, 0, 5, 0)
	f.SendOnCircuit(entry, flit.Message{ID: 1, Src: 0, Dst: 5, Len: 64, InjectTime: now})
	for i := 0; i < 20; i++ {
		f.InjectWormhole(flit.Message{ID: flit.MsgID(i + 2), Src: i % 16, Dst: (i*5 + 3) % 16, Len: 1 + i%7, InjectTime: now})
	}
	for ; now < 40; now++ {
		f.Cycle(now)
		if err := f.Check(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	wh, circ := f.WH.FlitsDelivered, f.CircuitFlitsDelivered
	for _, corrupt := range []func(){
		func() { f.WH.FlitsDelivered++ },
		func() { f.CircuitFlitsDelivered-- },
	} {
		corrupt()
		if err := f.Check(); err == nil || !strings.Contains(err.Error(), "flit balance") {
			t.Fatalf("Check = %v, want the flit balance clause", err)
		}
		f.WH.FlitsDelivered, f.CircuitFlitsDelivered = wh, circ
	}
}
