package protocol

// Snapshot support for the protocol manager: per-node per-destination FSM
// state (queued messages, opening/close/slot-wait flags, retry budgets),
// the in-flight message table and the counters. Maps serialise in sorted
// key order. The optional Events log is diagnostic output, not simulation
// state, and is not snapshotted.

import (
	"slices"

	"repro/internal/flit"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// State encodes or decodes the manager's own state and then the fabric's.
// Decoding requires a manager built with the same topology, Params, Kind
// and Options.
func (m *Manager) State(c *snapshot.Codec) error {
	snapshot.I64(c, &m.nextMsg)

	if c.Decoding() {
		m.oldest = m.nextMsg + 1
	}
	snapshot.SortedMap(c, &m.inFlight, func(id *flit.MsgID, at *int64) {
		snapshot.I64(c, id)
		snapshot.I64(c, at)
		if c.Decoding() {
			if *id < 1 || *id > m.nextMsg {
				c.Failf("protocol: in-flight message %d outside the issued IDs 1..%d", *id, m.nextMsg)
			}
			// On a well-formed stream this is the first key: keys decode in
			// ascending order, and the smallest is the oldest message.
			m.oldest = min(m.oldest, *id)
		}
	})

	for n := range m.dests {
		if c.Decoding() {
			m.slotWaiters[n] = m.slotWaiters[n][:0]
		}
		snapshot.SortedMap(c, &m.dests[n], func(d *topology.Node, dsp **destState) {
			if c.Decoding() {
				*dsp = &destState{}
			}
			ds := *dsp
			snapshot.I64(c, d)
			snapshot.Queue(c, &ds.queue, &ds.head, func(q *flit.Message) { q.Walk(c) })
			c.Bool(&ds.opening)
			c.Bool(&ds.closeReq)
			c.Bool(&ds.wantSlot)
			snapshot.I64(c, &ds.retries)
			if c.Decoding() && ds.wantSlot {
				m.slotWaiters[n] = append(m.slotWaiters[n], *d)
			}
		})
		if c.Decoding() {
			// Decoded keys arrive in ascending order, but the derived list
			// must be sorted whatever the payload holds.
			slices.Sort(m.slotWaiters[n])
		}
	}

	ctr := &m.Ctr
	for _, v := range []*int64{
		&ctr.Sent, &ctr.DeliveredWormhole, &ctr.DeliveredCircuit, &ctr.FallbackWormhole,
		&ctr.SetupsStarted, &ctr.SetupsOK, &ctr.SetupsFailed, &ctr.Phase2Entered,
		&ctr.Phase3Entered, &ctr.OpensRequested, &ctr.ClosesRequested,
		&ctr.SetupCyclesTotal, &ctr.CircuitMessagesQueued, &ctr.ShortBypass,
		&ctr.CircuitWaitCycles, &ctr.CircuitSendsStarted, &ctr.SetupRetries,
	} {
		snapshot.I64(c, v)
	}
	if err := c.Err(); err != nil {
		return err
	}
	return m.Fab.State(c)
}
