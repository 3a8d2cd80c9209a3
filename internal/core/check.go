package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/topology"
)

// Check verifies the fabric's own state:
//
//   - flit balance: every flit injected is delivered, held by the wormhole
//     engine (buffered, waiting at its source or parked by recovery) or
//     riding a circuit transfer, where a flit that recovery took back after
//     its delivery is delivered twice;
//   - caches: each node's Circuit Cache holds at most its capacity, in
//     ascending destination order, of hosts other than the node
//     (circuit.Cache.Check);
//   - circuits: an Established or Releasing entry names a registered PCS
//     circuit from the node to its Dest, on its Switch, whose first hop is
//     its Channel. (A Setting entry has no circuit yet: the PCS registers
//     one when its probe reaches the destination, and the entry turns
//     Established when the acknowledgment returns.)
//
// The engines and the protocol check their own state; wave.Simulator.Check
// runs all four.
func (f *Fabric) Check() error {
	if in, out := f.flitBalance(); in != out {
		return fmt.Errorf("core: flit balance: %d flits injected or retaken, %d delivered, held or on circuits", in, out)
	}
	hosts := f.Topo.Hosts()
	for n := range f.caches {
		cache := &f.caches[n]
		if err := cache.Check(topology.Node(n), hosts); err != nil {
			return fmt.Errorf("core: caches: %w", err)
		}
		for _, e := range cache.Entries() {
			if e.State != circuit.Established && e.State != circuit.Releasing {
				continue
			}
			c, ok := f.PCS.CircuitByID(e.ID)
			if !ok || c.Src != topology.Node(n) || c.Dst != e.Dest || c.Switch != e.Switch || len(c.Path) == 0 ||
				c.Path[0] != (pcs.Channel{Link: e.Channel, Switch: e.Switch}) {
				return fmt.Errorf("core: circuits: node %d caches a %v circuit %d to %d on switch %d from link %d, which the PCS does not hold",
					n, e.State, e.ID, e.Dest, e.Switch, e.Channel)
			}
		}
	}
	return nil
}

// flitBalance returns the two sides of Check's equation: flits injected
// plus flits retaken, and flits delivered, held and on circuits.
func (f *Fabric) flitBalance() (in, out int64) {
	held, retaken := f.WH.FlitBalance()
	out = f.WH.FlitsDelivered + f.CircuitFlitsDelivered + held
	f.CircuitMessages(func(m flit.Message) { out += int64(m.Len) })
	return f.flitsIn + retaken, out
}

// CircuitMessages calls fn with every message riding a circuit transfer.
func (f *Fabric) CircuitMessages(fn func(flit.Message)) {
	for _, ev := range f.events.Pending() {
		if ev.Kind == evCircuitDeliver {
			a := ev.Args
			fn(flit.Message{ID: flit.MsgID(a[0]), Src: int(a[1]), Dst: int(a[2]), Len: int(a[3]), InjectTime: a[4]})
		}
	}
}
