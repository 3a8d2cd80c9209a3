package wormhole

// Snapshot support: State walks the engine's complete mutable state — the
// slot arena with its LIFO free-list order, per-VC buffers and head-slot
// rings, injection queues, credit counters and the in-flight credit pipe,
// output ownership, the active-set bitmap, recovery bookkeeping and all
// counters. Per-cycle scratch (busy flags, dirty lists, arrivals) is
// excluded: snapshots are taken between cycles, when it is logically empty.
// Restoring into an engine built from the identical Params and topology
// reproduces the original bit for bit.

import (
	"repro/internal/flit"
	"repro/internal/snapshot"
)

// State encodes or decodes the engine's mutable state. Encoding requires
// the engine to be between cycles (no arrivals pending commit); decoding
// requires an engine built with the same topology and Params.
func (e *Engine) State(c *snapshot.Codec) error {
	snapshot.I64(c, &e.now)
	snapshot.I64(c, &e.rr)

	// Slot arena: every slot (live or free) in index order, then the
	// free-list in its exact LIFO order — slot assignment is canonical and
	// must survive the round trip.
	snapshot.Slice(c, &e.slots, func(sl *msgSlot) {
		sl.msg.Walk(c)
		c.Bool(&sl.live)
		snapshot.I64(c, &sl.lastProgress)
		c.Bool(&sl.hasProgress)
		snapshot.I64(c, &sl.retries)
		c.Bool(&sl.parked)
	})
	snapshot.Slice(c, &e.freeSlots, func(s *int32) { snapshot.U32(c, s) })
	snapshot.I64(c, &e.liveSlots)

	c.Fixed(len(e.in), "wormhole link VCs", func(i int) {
		v := &e.in[i]
		n := v.buf.Len()
		c.Count(&n)
		if c.Decoding() {
			v.buf.Reset()
		}
		for j := 0; j < n && c.Err() == nil; j++ {
			var fl flit.Flit
			if !c.Decoding() {
				fl = v.buf.At(j)
			}
			fl.Walk(c)
			if c.Decoding() && !v.buf.Push(fl) {
				c.Failf("wormhole: snapshot VC %d holds %d flits, buffer depth %d", i, n, v.buf.Cap())
			}
		}
		snapshot.U8(c, &v.phase)
		snapshot.I64(c, &v.outLink)
		snapshot.I64(c, &v.outVC)
		snapshot.I64(c, &v.rcWait)
		snapshot.U32(c, &v.curSlot)
		snapshot.Queue(c, &v.headSlots, &v.hsHead, func(s *int32) { snapshot.U32(c, s) })
	})
	for i := range e.credits {
		snapshot.I64(c, &e.credits[i])
	}
	for i := range e.outOwner {
		snapshot.U32(c, &e.outOwner[i])
	}

	c.Fixed(len(e.inj), "wormhole injection ports", func(i int) {
		p := &e.inj[i]
		snapshot.Queue(c, &p.queue, &p.head, func(s *int32) { snapshot.U32(c, s) })
		snapshot.I64(c, &p.sent)
		snapshot.U8(c, &p.phase)
		snapshot.I64(c, &p.outLink)
		snapshot.I64(c, &p.outVC)
		snapshot.I64(c, &p.rcWait)
	})

	// Credit pipe (only populated when CreditDelay > 0).
	snapshot.Queue(c, &e.creditQueue, &e.creditHead, func(pc *pendingCredit) {
		snapshot.U32(c, &pc.ch)
		snapshot.I64(c, &pc.at)
	})

	// Recovery bookkeeping.
	hasRecovery := e.recovery != nil
	c.Bool(&hasRecovery)
	if hasRecovery != (e.recovery != nil) {
		return c.Failf("wormhole: snapshot recovery=%v, engine recovery=%v (params mismatch)", hasRecovery, e.recovery != nil)
	}
	if hasRecovery {
		snapshot.I64(c, &e.recovery.Aborts)
		snapshot.Slice(c, &e.recovery.parked, func(p *parkedSlot) {
			snapshot.U32(c, &p.slot)
			snapshot.I64(c, &p.readyAt)
		})
	}

	// Active set.
	snapshot.I64(c, &e.activeCount)
	c.Fixed(len(e.active), "wormhole active-bitmap words", func(i int) { c.U64(&e.active[i]) })

	// Counters.
	snapshot.I64(c, &e.FlitsMoved)
	snapshot.I64(c, &e.FlitsDelivered)
	snapshot.I64(c, &e.MsgsDelivered)
	c.Fixed(len(e.LinkFlits), "wormhole link slots", func(i int) { snapshot.I64(c, &e.LinkFlits[i]) })
	return c.Err()
}
