package protocol

import (
	"fmt"

	"repro/internal/flit"
)

// Check verifies the in-flight window against the layers that hold the
// messages: its undelivered entries are exactly the messages queued here
// for a circuit, in flight in the wormhole engine or riding a circuit
// transfer, each held once and with the inject time the window records,
// and live counts them.
func (m *Manager) Check() error {
	held := make(map[flit.MsgID]int64, m.live)
	var twice []flit.MsgID
	hold := func(msg flit.Message) {
		if _, dup := held[msg.ID]; dup {
			twice = append(twice, msg.ID)
		}
		held[msg.ID] = msg.InjectTime
	}
	for n := range m.dests {
		for _, ds := range m.dests[n] {
			for _, msg := range ds.pending() {
				hold(msg)
			}
		}
	}
	m.Fab.WH.LiveMessages(hold)
	m.Fab.CircuitMessages(hold)
	if len(twice) > 0 {
		return fmt.Errorf("protocol: message %d is held twice", twice[0])
	}
	window := 0
	for i := m.head; i < len(m.sent); i++ {
		if m.sent[i] < 0 {
			continue
		}
		window++
		id := m.nextMsg - flit.MsgID(len(m.sent)-1-i)
		if at, ok := held[id]; !ok || at != m.sent[i] {
			return fmt.Errorf("protocol: in-flight window holds message %d sent at %d, which no layer holds", id, m.sent[i])
		}
	}
	if window != len(held) || m.live != window {
		return fmt.Errorf("protocol: in-flight window holds %d messages and live counts %d, the layers hold %d", window, m.live, len(held))
	}
	return nil
}
