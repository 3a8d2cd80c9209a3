package wormhole

// Snapshot support: State walks the engine's complete mutable state — the
// slot arena with its LIFO free-list order, per-VC buffers, injection
// queues, credit counters and the in-flight credit pipe, output ownership,
// the active set, recovery bookkeeping and all counters. Per-cycle scratch
// (the busy-flag stamps and their pass counter, arrivals) is excluded:
// snapshots are taken between cycles, when no flag of a later pass can read
// busy. Restoring into an engine built from the identical Params and
// topology reproduces the original bit for bit.
//
// The format carries every register's logical value, not its stored form
// (the engine stores some offset, so that their zero value is the reset
// state): an output allocation is a link and a VC, Invalid and 0 for none
// or local delivery; a VC's current message slot and an output channel's
// owner port are indexes, -1 for none; and an output channel carries its
// credits, the free buffer space downstream, rather than the credits it
// has spent.
//
// Two parts of the byte format are not engine fields but derived from
// them: buffered flits are written in full, and each VC writes the queue
// of its buffered headers still to be routed. Decoding refuses bytes that
// disagree: a flit must be the named flit of a live message, and the
// header queue must list the buffered heads other than the current
// message's. The active set is written as its member count and one bitmap
// (routing | active words); decoding splits each word between the two
// sets by port phase and rebuilds the summaries. Everything else the
// decoder would have to cross-check (one slot per live message, the live
// count, credits, ownership, the sets against the phases, rr >= 0) is a
// clause of Check, which decoding runs last.

import (
	"slices"

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
	snapshot.I64(c, &e.liveSlots)

	// The message index grows with the arena's live slots; the count
	// written beside them sizes nothing.
	var slotOf map[flit.MsgID]int32 // decoding: live message -> slot
	if c.Decoding() && c.Err() == nil {
		slotOf = make(map[flit.MsgID]int32)
		for s := range e.slots {
			if e.slots[s].live {
				slotOf[e.slots[s].msg.ID] = int32(s)
			}
		}
	}
	var heads, got []int32
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
			var fl flit.Flit
			if !c.Decoding() {
				fl = e.slots[r.slot].msg.FlitAt(int(r.seq))
			}
			fl.Walk(c)
			if c.Decoding() {
				s, ok := slotOf[fl.Msg]
				if !ok || fl.Seq < 0 || fl.Seq >= e.slots[s].msg.Len || fl != e.slots[s].msg.FlitAt(fl.Seq) {
					c.Failf("wormhole: snapshot VC %d holds flit %+v of no live message", i, fl)
					return
				}
				*r = flitRef{slot: s, seq: int32(fl.Seq), kind: fl.Kind}
			}
		}
		e.walkPhase(c, &v.phase)
		e.walkOut(c, &v.outLink, &v.outCh1)
		walkI32(c, &v.rcWait, int64(e.prm.RouteDelay))
		cur := v.curSlot1 - 1
		snapshot.U32(c, &cur)
		v.curSlot1 = cur + 1
		// The headers still to be routed: every buffered head but the
		// current message's.
		heads = heads[:0]
		for j := int32(0); j < v.count; j++ {
			if r := e.ring[e.ringAt(port, j)]; r.kind.IsHead() && r.slot != cur {
				heads = append(heads, r.slot)
			}
		}
		got = append(got[:0], heads...)
		snapshot.Slice(c, &got, func(s *int32) { snapshot.U32(c, s) })
		if c.Decoding() && c.Err() == nil && !slices.Equal(got, heads) {
			c.Failf("wormhole: snapshot VC %d head-slot queue %v, buffered heads give %v", i, got, heads)
		}
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

	// Active set: the non-idle port count, then one word per 64 ports,
	// routing | active. Decoding puts a member in the active set if its
	// port streams and in the routing set otherwise; Check holds both
	// sets to the phases.
	count := e.ActivePorts()
	snapshot.I64(c, &count)
	c.Fixed(len(e.routing.words), "wormhole active-bitmap words", func(i int) {
		w := e.routing.words[i] | e.active.words[i]
		c.U64(&w)
		if c.Decoding() {
			var streaming uint64
			for b := 0; b < 64 && i<<6+b < e.NumPorts(); b++ {
				if ph, _ := e.portOut(i<<6 + b); ph == vcActive {
					streaming |= 1 << uint(b)
				}
			}
			e.routing.words[i], e.active.words[i] = w&^streaming, w&streaming
		}
	})
	if c.Decoding() {
		e.active.rebuild()
		e.routing.rebuild()
		e.routing.n = count - e.active.n
	}

	// Counters.
	snapshot.I64(c, &e.FlitsMoved)
	snapshot.I64(c, &e.FlitsDelivered)
	snapshot.I64(c, &e.MsgsDelivered)
	c.Fixed(len(e.LinkFlits), "wormhole link slots", func(i int) { snapshot.I64(c, &e.LinkFlits[i]) })
	if c.Decoding() && c.Err() == nil {
		if err := e.Check(); err != nil {
			return c.Failf("snapshot: %w", err)
		}
	}
	return c.Err()
}

// walkPhase walks a port phase, refusing an unknown value.
func (e *Engine) walkPhase(c *snapshot.Codec, ph *vcPhase) {
	snapshot.U8(c, ph)
	if *ph > vcActive {
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
