package protocol

// Snapshot support for the protocol manager: per-node per-destination FSM
// state (queued messages, opening/close/slot-wait flags, retry budgets),
// the in-flight messages and the counters. Maps serialise in sorted key
// order. The in-flight window serialises as its undelivered entries only:
// a count, then (ID, inject time) pairs in ascending ID order. Decoding
// rebuilds the window from them (delivered IDs between them read as
// delivered) and refuses IDs that repeat, go backwards or fall outside
// 1..nextMsg; once the fabric is decoded, Check holds the window to the
// messages the layers hold. The optional Events log is diagnostic output,
// not simulation state, and is not snapshotted.

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
	m.windowState(c)

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
	if err := m.Fab.State(c); err != nil || !c.Decoding() {
		return err
	}
	if err := m.Check(); err != nil {
		return c.Failf("snapshot: %w", err)
	}
	return nil
}

// maxWindow bounds the in-flight window a snapshot may carry: the messages
// from the oldest in flight to the newest sent, 32 MiB of inject times. A
// decoder that sized the window from two forged IDs alone could allocate
// without limit; an encoder refuses a wider window rather than write a
// checkpoint that cannot be restored.
const maxWindow = 1 << 22

// windowState walks the in-flight window: the count of undelivered
// messages, then their IDs and inject times in ascending ID order.
func (m *Manager) windowState(c *snapshot.Codec) {
	n := m.live
	c.Count(&n)
	if c.Decoding() {
		m.sent, m.head, m.live = m.sent[:0], 0, 0
	}
	var last flit.MsgID
	i := m.head
	for k := 0; k < n && c.Err() == nil; k++ {
		var id flit.MsgID
		var at int64
		if !c.Decoding() {
			for m.sent[i] < 0 {
				i++
			}
			id, at = m.nextMsg-flit.MsgID(len(m.sent)-1-i), m.sent[i]
			i++
		}
		snapshot.I64(c, &id)
		snapshot.I64(c, &at)
		switch {
		case id < 1 || id > m.nextMsg:
			c.Failf("protocol: in-flight message %d outside the issued IDs 1..%d", id, m.nextMsg)
		case id <= last:
			c.Failf("protocol: in-flight message %d follows %d: IDs repeat or go backwards", id, last)
		case at < 0:
			c.Failf("protocol: in-flight message %d injected at cycle %d", id, at)
		case k == 0 && m.nextMsg-id >= maxWindow:
			c.Failf("protocol: %d messages sent since in-flight message %d, window limit %d", m.nextMsg-id, id, maxWindow)
		}
		if c.Decoding() && c.Err() == nil {
			if k == 0 {
				m.sent = make([]int64, m.nextMsg-id+1)
				for j := range m.sent {
					m.sent[j] = -1
				}
			}
			m.sent[m.windowIndex(id)] = at
			m.live++
		}
		last = id
	}
}
