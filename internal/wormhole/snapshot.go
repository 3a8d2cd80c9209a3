package wormhole

// Snapshot support: State walks the engine's mutable state — the slot
// arena with its LIFO free-list order, per-VC buffers, injection queues,
// credit counters and the in-flight credit pipe, output ownership,
// recovery bookkeeping and all counters. Per-cycle scratch (the busy-flag
// stamps and their pass counter, arrivals) is excluded: snapshots are taken
// between cycles, when no flag of a later pass can read busy. Restoring
// into an engine built from the identical Params and topology reproduces
// the original bit for bit.
//
// The format carries every register's logical value, not its stored form
// (the engine stores some offset, so that their zero value is the reset
// state): an output allocation is a link and a VC, Invalid and 0 for none
// or local delivery; a VC's current message slot and an output channel's
// owner port are indexes, -1 for none; and an output channel carries its
// credits, the free buffer space downstream, rather than the credits it
// has spent.
//
// Each fact is written once. A buffered flit is its arena reference (slot
// and sequence number), and decoding takes its kind from its message's
// length. The live-slot count and the two port sets are not written:
// decoding recounts the live slots from the arena and rebuilds the sets
// from the port phases. Decoding refuses only what it cannot represent or
// index (more flits than a buffer holds, a flit slot past the arena, an
// unknown phase, an output out of range); everything else (one slot per
// live message, a flit of a live message at a sequence number it has,
// credits, ownership, the sets against the phases, rr >= 0) is a clause of
// Check, which decoding runs last.

import (
	"repro/internal/flit"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// State encodes or decodes the engine's mutable state. Encoding requires
// the engine to be between cycles (no arrivals pending commit); decoding
// requires an engine built with the same topology and Params.
func (e *Engine) State(c *snapshot.Codec) error {
	snapshot.I64(c, &e.now)
	snapshot.I64(c, &e.rr)
	e.start = e.rr % e.NumPorts()

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
	if c.Decoding() {
		e.liveSlots = 0
		for s := range e.slots {
			if e.slots[s].live {
				e.liveSlots++
			}
		}
	}

	c.Fixed(len(e.in), "wormhole link VCs", func(i int) {
		port := int32(i)
		v := &e.in[i]
		n := int(v.count)
		c.Count(&n)
		if c.Decoding() {
			if n > int(e.depth) {
				c.Failf("wormhole: snapshot VC %d holds %d flits, buffer depth %d", i, n, e.depth)
				return
			}
			v.head, v.count = 0, int32(n)
			v.inLink = port / e.nvc
		}
		for j := int32(0); j < int32(n) && c.Err() == nil; j++ {
			r := &e.ring[e.ringAt(port, j)]
			snapshot.U32(c, &r.slot)
			snapshot.U32(c, &r.seq)
			if c.Decoding() && c.Err() == nil {
				if r.slot < 0 || int(r.slot) >= len(e.slots) {
					c.Failf("wormhole: snapshot VC %d holds a flit of slot %d, arena of %d", i, r.slot, len(e.slots))
					return
				}
				r.kind = flit.KindOf(int(r.seq), e.slots[r.slot].msg.Len)
			}
		}
		e.walkPhase(c, &v.phase)
		e.walkOut(c, &v.outLink, &v.outCh1)
		walkI32(c, &v.rcWait, int64(e.prm.RouteDelay))
		cur := v.curSlot1 - 1
		snapshot.U32(c, &cur)
		v.curSlot1 = cur + 1
	})
	for i := range e.out {
		credits := e.credits(i)
		walkI32(c, &credits, int64(e.depth))
		e.out[i].spent = e.depth - credits
	}
	for i := range e.out {
		owner := e.out[i].owner()
		snapshot.U32(c, &owner)
		e.out[i].owner1 = owner + 1
	}

	c.Fixed(len(e.inj), "wormhole injection ports", func(i int) {
		p := &e.inj[i]
		snapshot.Queue(c, &p.queue, &p.head, func(s *int32) { snapshot.U32(c, s) })
		snapshot.I64(c, &p.sent)
		e.walkPhase(c, &p.phase)
		e.walkOut(c, &p.outLink, &p.outCh1)
		snapshot.I64(c, &p.rcWait)
		if c.Decoding() && p.phase == vcActive && p.qlen() > 0 && e.liveSlot(p.front()) {
			p.frontLen = e.slots[p.front()].msg.Len
		}
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

	// Counters.
	snapshot.I64(c, &e.FlitsMoved)
	snapshot.I64(c, &e.FlitsDelivered)
	snapshot.I64(c, &e.MsgsDelivered)
	c.Fixed(len(e.LinkFlits), "wormhole link slots", func(i int) { snapshot.I64(c, &e.LinkFlits[i]) })
	if c.Decoding() && c.Err() == nil {
		e.rebuildSets()
		if err := e.Check(); err != nil {
			return c.Failf("snapshot: %w", err)
		}
	}
	return c.Err()
}

// rebuildSets puts every routing port in the routing set and every
// streaming port in the active set.
func (e *Engine) rebuildSets() {
	e.routing.reset()
	e.active.reset()
	for port := 0; port < e.NumPorts(); port++ {
		switch ph, _ := e.portOut(port); ph {
		case vcRouting:
			e.routing.add(port)
		case vcActive:
			e.active.add(port)
		}
	}
}

// walkPhase walks a port phase, refusing an unknown value on decode.
func (e *Engine) walkPhase(c *snapshot.Codec, ph *vcPhase) {
	snapshot.U8(c, ph)
	if c.Decoding() && *ph > vcActive {
		c.Failf("wormhole: snapshot port phase %d", *ph)
	}
}

// walkOut walks an output allocation as int64 link and VC (Invalid and 0
// for none or local delivery) while the engine keeps the link and the
// channel index plus one.
func (e *Engine) walkOut(c *snapshot.Codec, link, ch1 *int32) {
	l, vc := int64(topology.Invalid), int64(0)
	if *ch1 != 0 {
		l, vc = int64(*link), int64(*ch1-1-*link*e.nvc)
	}
	snapshot.I64(c, &l)
	snapshot.I64(c, &vc)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	switch {
	case l == int64(topology.Invalid) && vc == 0:
		*link, *ch1 = 0, 0
	case l >= 0 && l < int64(e.numLinks) && vc >= 0 && vc < int64(e.nvc):
		*link, *ch1 = int32(l), int32(l)*e.nvc+int32(vc)+1
	default:
		c.Failf("wormhole: snapshot output (%d, %d) out of range", l, vc)
	}
}

// walkI32 walks an int32 in the int64 wire form, refusing values outside
// [0, max] on decode.
func walkI32(c *snapshot.Codec, v *int32, max int64) {
	x := int64(*v)
	snapshot.I64(c, &x)
	if c.Decoding() && c.Err() == nil {
		if x < 0 || x > max {
			c.Failf("wormhole: snapshot value %d outside [0, %d]", x, max)
			return
		}
		*v = int32(x)
	}
}
