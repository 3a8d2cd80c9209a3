package wormhole

// Check is the engine's invariant checker over live state. It holds the
// properties the deadlock proofs and the active-set walk assume:
//
//   - flits: every buffered message and every queued or parked injection
//     slot is a live slot, a VC's front flit is one its message has, and
//     a routing VC fronts a head;
//   - runs: a VC that fronts no message buffers and queues nothing, an
//     idle VC fronts nothing and a streaming VC fronts its message, a
//     queued message holds at least one flit and the buffer's last
//     message no more than it has left, and a streaming VC with an empty
//     buffer awaits the flit its channel's owner sends next;
//   - arena: each live message occupies one slot, liveSlots counts them,
//     and the free list holds every other slot once;
//   - credits: on every VC, buffered flits plus credits in flight plus
//     the upstream credit counter equal BufDepth;
//   - channel ownership: each owned output channel's owner port is
//     streaming onto it, and each streaming port owns its channel;
//   - port sets: both two-level sets (words, summary, count) equal the
//     port phases, and the rotation start is rr modulo NumPorts.
//
// Check judges the engine between cycles, when every flit that crossed a
// link has landed in its buffer. It reads every port and allocates, so it
// runs on snapshot decoding, on a watchdog trip and in tests, never inside
// the cycle loop. It must not panic on any state a decoder can produce:
// every index it follows is range-checked first.

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/flit"
)

// Check returns an error naming the first broken invariant, or nil.
func (e *Engine) Check() error {
	for _, clause := range []func() error{e.checkFlits, e.checkRuns, e.checkArena, e.checkCredits, e.checkOwners, e.checkSets} {
		if err := clause(); err != nil {
			return fmt.Errorf("wormhole: %w", err)
		}
	}
	return nil
}

// liveSlot reports whether s indexes a live arena slot.
func (e *Engine) liveSlot(s int32) bool { return s >= 0 && int(s) < len(e.slots) && e.slots[s].live }

func (e *Engine) checkArena() error {
	live := 0
	at := make(map[flit.MsgID]int, e.liveSlots)
	for s := range e.slots {
		if !e.slots[s].live {
			continue
		}
		live++
		id := e.slots[s].msg.ID
		if prev, dup := at[id]; dup {
			return fmt.Errorf("arena: message %d live in slots %d and %d", id, prev, s)
		}
		at[id] = s
	}
	if live != e.liveSlots {
		return fmt.Errorf("arena: counts %d live slots, the arena holds %d", e.liveSlots, live)
	}
	free := make([]bool, len(e.slots))
	for _, s := range e.freeSlots {
		if s < 0 || int(s) >= len(e.slots) || e.slots[s].live || free[s] {
			return fmt.Errorf("arena: free list entry %d is not a free slot listed once", s)
		}
		free[s] = true
	}
	if len(e.freeSlots)+live != len(e.slots) {
		return fmt.Errorf("arena: %d free and %d live of %d slots", len(e.freeSlots), live, len(e.slots))
	}
	return nil
}

func (e *Engine) checkFlits() error {
	for i := range e.chans {
		v := &e.chans[i]
		if v.count < 0 || v.count > e.depth || v.qn < 0 || v.qn >= e.depth {
			return fmt.Errorf("flits: VC %d holds %d flits and queues %d messages, buffer depth %d", i, v.count, v.qn, e.depth)
		}
		if v.front1 != 0 {
			f := v.front1 - 1
			if !e.liveSlot(f) {
				return fmt.Errorf("flits: VC %d holds a flit of slot %d, no live message", i, f)
			}
			if m := &e.slots[f].msg; v.flen != int32(m.Len) || v.seq < 0 || v.seq >= v.flen {
				return fmt.Errorf("flits: VC %d fronts flit %d of message %d as %d flits long, it is %d flits long", i, v.seq, m.ID, v.flen, m.Len)
			}
			if v.phase == vcRouting && v.seq != 0 {
				return fmt.Errorf("flits: routing VC %d fronts %v flit %d, not a head", i, flit.KindOf(int(v.seq), int(v.flen)), v.seq)
			}
		}
		for _, s := range e.msgq[int32(i)*e.depth:][:v.qn] {
			if !e.liveSlot(s) {
				return fmt.Errorf("flits: VC %d holds a flit of slot %d, no live message", i, s)
			}
		}
	}
	for n := range e.inj {
		p := &e.inj[n]
		for j, s := range p.queue[p.head:] {
			if !e.liveSlot(s) || e.slots[s].parked || e.slots[s].msg.Src != n {
				what := "queues"
				if j == 0 {
					what = "fronts"
				}
				return fmt.Errorf("flits: injection port %d %s slot %d of no live message from it", n, what, s)
			}
		}
		if p.phase == vcActive && (p.qlen() == 0 || p.sent >= p.frontLen || p.frontLen != e.slots[p.front()].msg.Len) {
			return fmt.Errorf("flits: injection port %d streams flit %d of a %d-flit front", n, p.sent, p.frontLen)
		}
	}
	if e.recovery != nil {
		for _, pk := range e.recovery.parked {
			if !e.liveSlot(pk.slot) || !e.slots[pk.slot].parked {
				return fmt.Errorf("flits: recovery parks slot %d, no parked live message", pk.slot)
			}
		}
	}
	return nil
}

func (e *Engine) checkRuns() error {
	nl := int32(e.numLinkInputs())
	for i := range e.chans {
		v := &e.chans[i]
		switch {
		case v.front1 == 0 && (v.count != 0 || v.qn != 0):
			return fmt.Errorf("runs: VC %d holds %d flits and queues %d messages behind no front", i, v.count, v.qn)
		case v.phase == vcIdle && v.front1 != 0:
			return fmt.Errorf("runs: idle VC %d fronts slot %d", i, v.front1-1)
		case v.phase == vcActive && v.front1 == 0:
			return fmt.Errorf("runs: streaming VC %d fronts no message", i)
		}
		// A queued message holds at least its head, and the last message
		// buffered at most the flits it has left.
		last, held, left := v.front1-1, v.count, v.flen-v.seq
		if q := e.msgq[int32(i)*e.depth:][:v.qn]; len(q) > 0 {
			held -= left
			for _, s := range q[:len(q)-1] {
				if e.msgLen(s) < 1 {
					return fmt.Errorf("runs: VC %d queues the message in slot %d, %d flits long", i, s, e.msgLen(s))
				}
				held -= e.msgLen(s)
			}
			last, left = q[len(q)-1], e.msgLen(q[len(q)-1])
			if held < 1 {
				return fmt.Errorf("runs: VC %d holds %d flits of its last queued message %d", i, held, last)
			}
		}
		if held > left {
			return fmt.Errorf("runs: VC %d holds %d flits of the message in slot %d, which has %d left", i, held, last, left)
		}
		if v.phase != vcActive || v.count != 0 {
			continue
		}
		// An empty streaming VC awaits the next flit its channel's owner
		// sends. An owner that does not stream onto the channel is left to
		// the ownership clause.
		owner := v.owner()
		var slot, seq int32
		switch {
		case owner == -1:
			return fmt.Errorf("runs: empty streaming VC %d awaits flit %d of slot %d, and its channel has no owner", i, v.seq, v.front1-1)
		case owner < -1 || owner >= int32(e.NumPorts()):
			continue
		case owner < nl:
			u := &e.chans[owner]
			if u.phase != vcActive || u.outCh1 != int32(i)+1 {
				continue
			}
			slot, seq = u.front1-1, u.seq
		default:
			p := &e.inj[owner-nl]
			if p.phase != vcActive || p.outCh1 != int32(i)+1 || p.qlen() == 0 {
				continue
			}
			slot, seq = p.front(), int32(p.sent)
		}
		if slot != v.front1-1 || seq != v.seq {
			return fmt.Errorf("runs: empty streaming VC %d awaits flit %d of slot %d, its channel's owner port %d sends flit %d of slot %d",
				i, v.seq, v.front1-1, owner, seq, slot)
		}
	}
	return nil
}

func (e *Engine) checkCredits() error {
	pending := make([]int32, len(e.chans))
	for _, pc := range e.creditQueue[e.creditHead:] {
		if pc.ch < 0 || int(pc.ch) >= len(e.chans) {
			return fmt.Errorf("credits: credit in flight for channel %d of %d", pc.ch, len(e.chans))
		}
		pending[pc.ch]++
	}
	for ch := range e.chans {
		if credits := e.credits(ch); e.chans[ch].count+pending[ch]+credits != e.depth {
			return fmt.Errorf("credits: VC %d buffers %d flits with %d in flight and %d credits upstream, depth %d",
				ch, e.chans[ch].count, pending[ch], credits, e.depth)
		}
	}
	return nil
}

// portOut returns the phase and allocated output channel (-1 for none or
// local delivery) of global input port port.
func (e *Engine) portOut(port int) (vcPhase, int32) {
	if nl := e.numLinkInputs(); port >= nl {
		return e.inj[port-nl].phase, e.inj[port-nl].outCh1 - 1
	}
	return e.chans[port].phase, e.chans[port].outCh1 - 1
}

func (e *Engine) checkOwners() error {
	for port := 0; port < e.NumPorts(); port++ {
		ph, ch := e.portOut(port)
		switch {
		case ch < -1 || int(ch) >= len(e.chans):
			return fmt.Errorf("ownership: port %d holds output channel %d of %d", port, ch, len(e.chans))
		case ch >= 0 && ph != vcActive:
			return fmt.Errorf("ownership: port %d in phase %d holds output channel %d", port, ph, ch)
		case ch >= 0 && e.chans[ch].owner() != int32(port):
			return fmt.Errorf("ownership: port %d streams onto output channel %d, owned by port %d", port, ch, e.chans[ch].owner())
		}
	}
	for ch := range e.chans {
		owner := e.chans[ch].owner()
		if owner == -1 {
			continue
		}
		if owner < 0 || int(owner) >= e.NumPorts() {
			return fmt.Errorf("ownership: output channel %d owned by port %d of %d", ch, owner, e.NumPorts())
		}
		if _, held := e.portOut(int(owner)); held != int32(ch) {
			return fmt.Errorf("ownership: output channel %d owned by port %d, which holds channel %d", ch, owner, held)
		}
	}
	return nil
}

func (e *Engine) checkSets() error {
	for _, set := range []struct {
		name  string
		s     *portSet
		phase vcPhase
	}{{"routing", &e.routing, vcRouting}, {"active", &e.active, vcActive}} {
		s, count := set.s, 0
		for port := 0; port < e.NumPorts(); port++ {
			ph, _ := e.portOut(port)
			if in := s.words[port>>6]&(1<<uint(port&63)) != 0; in != (ph == set.phase) {
				return fmt.Errorf("port sets: %s set membership %v for port %d in phase %d", set.name, in, port, ph)
			}
		}
		if tail := e.NumPorts() & 63; tail != 0 && s.words[len(s.words)-1]>>uint(tail) != 0 {
			return fmt.Errorf("port sets: %s set holds a port past the last of %d", set.name, e.NumPorts())
		}
		for w, word := range s.words {
			count += mathbits.OnesCount64(word)
			if in := s.sum[w>>6]&(1<<uint(w&63)) != 0; in != (word != 0) {
				return fmt.Errorf("port sets: %s summary bit %v for word %d = %#x", set.name, in, w, word)
			}
		}
		for w := len(s.words); w < len(s.sum)*64; w++ {
			if s.sum[w>>6]&(1<<uint(w&63)) != 0 {
				return fmt.Errorf("port sets: %s summary bit set for word %d past the last", set.name, w)
			}
		}
		if s.n != count {
			return fmt.Errorf("port sets: %s set counts %d members, its words hold %d", set.name, s.n, count)
		}
	}
	if e.rr < 0 || e.start != e.rr%e.NumPorts() {
		return fmt.Errorf("port sets: rotation start %d, rr = %d over %d ports", e.start, e.rr, e.NumPorts())
	}
	return nil
}

// FlitBalance returns the flits of live messages the engine still holds
// (buffered, waiting at their sources or parked by recovery) and the
// delivered flits recovery aborts took back, which their retries deliver
// again. The fabric's Check balances the flits it injected against these
// and FlitsDelivered.
func (e *Engine) FlitBalance() (held, retaken int64) {
	for i := range e.chans {
		held += int64(e.chans[i].count)
	}
	for n := range e.inj {
		p := &e.inj[n]
		for j, s := range p.queue[p.head:] {
			if !e.liveSlot(s) {
				continue // Check reports it
			}
			held += int64(e.slots[s].msg.Len)
			if j == 0 {
				held -= int64(p.sent)
			}
		}
	}
	if e.recovery != nil {
		for _, pk := range e.recovery.parked {
			if e.liveSlot(pk.slot) {
				held += int64(e.slots[pk.slot].msg.Len)
			}
		}
		retaken = e.recovery.Retaken
	}
	return held, retaken
}

// LiveMessages calls fn with every message in flight, in slot order.
func (e *Engine) LiveMessages(fn func(flit.Message)) {
	for s := range e.slots {
		if e.slots[s].live {
			fn(e.slots[s].msg)
		}
	}
}
