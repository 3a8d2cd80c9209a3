package wormhole

// Snapshot support: State walks the engine's mutable state — the slot
// arena with its LIFO free-list order, per-VC buffers, injection queues,
// credit counters and the in-flight credit pipe, output ownership,
// recovery bookkeeping and all counters. Per-cycle scratch (the busy-flag
// and arrived stamps and their pass counter) is excluded: snapshots are
// taken between cycles, when no stamp of a later pass can match. Restoring
// into an engine built from the identical Params and topology reproduces
// the original bit for bit.
//
// The format carries every register's logical value, not its stored form
// (the engine stores some offset, so that their zero value is the reset
// state): an output allocation is a link and a VC, Invalid and 0 for none
// or local delivery; the message a VC streams and an output channel's
// owner port are indexes, -1 for none; and an output channel carries its
// credits, the free buffer space downstream, rather than the credits it
// has spent.
//
// Each fact is written once. A buffered flit is its arena reference (slot
// and sequence number): the encoder expands a VC's message runs into
// them, and decoding rebuilds the runs, taking each message's length from
// its slot. The live-slot count, the two port sets and the next flit an
// empty streaming VC awaits are not written: decoding recounts the live
// slots from the arena, rebuilds the sets from the port phases, and
// follows channel owners upstream to the flit each empty streaming VC
// awaits. Decoding refuses only what it cannot represent or index (more
// flits than a buffer holds, flits out of message order, a slot past the
// arena, an unknown phase, an output out of range, a streamed message that
// is not the VC's front, owners in a cycle); everything else (one slot per
// live message, a flit of a live message at a sequence number it has,
// runs, credits, ownership, the sets against the phases, rr >= 0) is a
// clause of Check, which decoding runs last.

import (
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// State encodes or decodes the engine's mutable state between cycles;
// decoding requires an engine built with the same topology and Params.
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

	var refs []flitRef
	c.Fixed(len(e.chans), "wormhole link VCs", func(i int) {
		port := int32(i)
		v := &e.chans[i]
		n := int(v.count)
		c.Count(&n)
		if c.Decoding() {
			if n > int(e.depth) {
				c.Failf("wormhole: snapshot VC %d holds %d flits, buffer depth %d", i, n, e.depth)
				return
			}
			e.decodeRuns(c, port, n)
		} else {
			refs = e.vcFlits(port, refs[:0])
			for _, r := range refs {
				snapshot.U32(c, &r.slot)
				snapshot.U32(c, &r.seq)
			}
		}
		e.walkPhase(c, &v.phase)
		e.walkOut(c, &v.outLink, &v.outCh1)
		walkI32(c, &v.rcWait, int64(e.prm.RouteDelay))
		cur := int32(-1)
		if v.phase == vcActive {
			cur = v.front1 - 1
		}
		snapshot.U32(c, &cur)
		if c.Decoding() && c.Err() == nil {
			e.decodeStreamed(c, port, cur)
		}
	})
	for i := range e.chans {
		credits := e.credits(i)
		walkI32(c, &credits, int64(e.depth))
		e.chans[i].spent = e.depth - credits
	}
	for i := range e.chans {
		owner := e.chans[i].owner()
		snapshot.U32(c, &owner)
		e.chans[i].owner1 = owner + 1
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
		e.deriveAwaited(c)
	}
	if c.Decoding() && c.Err() == nil {
		if err := e.Check(); err != nil {
			return c.Failf("snapshot: %w", err)
		}
	}
	return c.Err()
}

// decodeRuns reads the n flits buffered in VC port, front first, and
// rebuilds them as message runs: the first flit is the front's next, and
// each later one either continues the message of the flit before it or,
// after that message's tail, heads a message queued behind. A buffer in
// any other order is not message runs and is refused, as is a flit slot
// past the arena, before anything reads that slot.
func (e *Engine) decodeRuns(c *snapshot.Codec, port int32, n int) {
	v := &e.chans[port]
	v.front1, v.seq, v.flen, v.count, v.qn = 0, 0, 0, 0, 0
	v.inLink = port / e.nvc
	var prev flitRef
	for j := 0; j < n; j++ {
		var r flitRef
		snapshot.U32(c, &r.slot)
		snapshot.U32(c, &r.seq)
		if c.Err() != nil {
			return
		}
		switch {
		case r.slot < 0 || int(r.slot) >= len(e.slots):
			c.Failf("wormhole: snapshot VC %d holds a flit of slot %d, arena of %d", port, r.slot, len(e.slots))
			return
		case j == 0:
			v.front1, v.seq, v.flen = r.slot+1, r.seq, e.msgLen(r.slot)
		case r.slot == prev.slot && r.seq == prev.seq+1:
		case r.seq == 0 && prev.seq == e.msgLen(prev.slot)-1:
			e.msgq[port*e.depth+v.qn] = r.slot
			v.qn++
		default:
			c.Failf("wormhole: snapshot VC %d holds flit %d of slot %d after flit %d of slot %d, out of message order",
				port, r.seq, r.slot, prev.seq, prev.slot)
			return
		}
		v.count++
		prev = r
	}
}

// decodeStreamed reads back the message a VC streams, written as a slot
// (-1 for none) that only a streaming VC has. It is the VC's front: the
// buffered front's message, or, while the buffer is empty, the message it
// awaits, whose next flit deriveAwaited finds once the owners are read.
func (e *Engine) decodeStreamed(c *snapshot.Codec, port, cur int32) {
	v := &e.chans[port]
	switch {
	case v.phase != vcActive:
		if cur != -1 {
			c.Failf("wormhole: snapshot VC %d in phase %d streams slot %d", port, v.phase, cur)
		}
	case cur < 0 || int(cur) >= len(e.slots):
		c.Failf("wormhole: snapshot VC %d streams slot %d, arena of %d", port, cur, len(e.slots))
	case v.count == 0:
		v.front1, v.flen = cur+1, e.msgLen(cur)
	case v.front1 != cur+1:
		c.Failf("wormhole: snapshot VC %d streams slot %d and fronts slot %d", port, cur, v.front1-1)
	}
}

// deriveAwaited sets the next flit of every streaming VC whose buffer is
// empty: the flit its channel's owner sends next. That is an injecting
// owner's next flit or a buffering owner's front flit, found by following
// owners upstream through streaming VCs that are empty too. A chain that
// ends at no owner leaves the flit at 0 for Check to judge; one that comes
// back on itself is refused.
func (e *Engine) deriveAwaited(c *snapshot.Codec) {
	nl, ports := int32(e.numLinkInputs()), int32(e.NumPorts())
	state := make([]uint8, len(e.chans)) // 1: on the chain being followed, 2: derived
	var chain []int32
	for ch := range e.chans {
		if v := &e.chans[ch]; v.phase != vcActive || v.count != 0 || state[ch] == 2 {
			continue
		}
		chain = chain[:0]
		var seq int32
		for u := int32(ch); ; {
			if state[u] == 1 {
				c.Failf("wormhole: snapshot channel owners form a cycle through VC %d", u)
				return
			}
			state[u] = 1
			chain = append(chain, u)
			owner := e.chans[u].owner()
			if owner < 0 || owner >= ports {
				break
			}
			if owner >= nl {
				seq = int32(e.inj[owner-nl].sent)
				break
			}
			w := &e.chans[owner]
			if w.phase != vcActive || w.count != 0 || state[owner] == 2 {
				seq = w.seq
				break
			}
			u = owner
		}
		for _, u := range chain {
			e.chans[u].seq, state[u] = seq, 2
		}
	}
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
