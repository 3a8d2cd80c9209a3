package core

import (
	"fmt"

	"repro/internal/flit"
)

// Check verifies the fabric's flit balance: every flit injected is
// delivered, held by the wormhole engine (buffered, waiting at its source
// or parked by recovery) or riding a circuit transfer, where a flit that
// recovery took back after its delivery is delivered twice. The engines
// and the protocol check their own state; wave.Simulator.Check runs all
// four.
func (f *Fabric) Check() error {
	if in, out := f.flitBalance(); in != out {
		return fmt.Errorf("core: flit balance: %d flits injected or retaken, %d delivered, held or on circuits", in, out)
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
