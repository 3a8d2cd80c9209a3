package wormhole

// Check is the engine's invariant checker over live state. It holds the
// properties the deadlock proofs and the active-set walk assume:
//
//   - flits: every buffered flit and every queued or parked injection
//     slot belongs to a live slot, a flit at a sequence number and kind
//     its message has;
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
	for _, clause := range []func() error{e.checkFlits, e.checkArena, e.checkCredits, e.checkOwners, e.checkSets} {
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
	for i := range e.in {
		v := &e.in[i]
		if v.count < 0 || v.count > e.depth || v.head < 0 || v.head >= e.depth {
			return fmt.Errorf("flits: VC %d holds %d flits from %d, buffer depth %d", i, v.count, v.head, e.depth)
		}
		for j := int32(0); j < v.count; j++ {
			r := e.ring[e.ringAt(int32(i), j)]
			if !e.liveSlot(r.slot) {
				return fmt.Errorf("flits: VC %d holds a flit of slot %d, no live message", i, r.slot)
			}
			if m := &e.slots[r.slot].msg; r.seq < 0 || int(r.seq) >= m.Len || r.kind != flit.KindOf(int(r.seq), m.Len) {
				return fmt.Errorf("flits: VC %d holds flit %d (%v) of message %d, %d flits long", i, r.seq, r.kind, m.ID, m.Len)
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

func (e *Engine) checkCredits() error {
	pending := make([]int32, len(e.out))
	for _, pc := range e.creditQueue[e.creditHead:] {
		if pc.ch < 0 || int(pc.ch) >= len(e.out) {
			return fmt.Errorf("credits: credit in flight for channel %d of %d", pc.ch, len(e.out))
		}
		pending[pc.ch]++
	}
	for ch := range e.out {
		if credits := e.credits(ch); e.in[ch].count+pending[ch]+credits != e.depth {
			return fmt.Errorf("credits: VC %d buffers %d flits with %d in flight and %d credits upstream, depth %d",
				ch, e.in[ch].count, pending[ch], credits, e.depth)
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
	return e.in[port].phase, e.in[port].outCh1 - 1
}

func (e *Engine) checkOwners() error {
	for port := 0; port < e.NumPorts(); port++ {
		ph, ch := e.portOut(port)
		switch {
		case ch < -1 || int(ch) >= len(e.out):
			return fmt.Errorf("ownership: port %d holds output channel %d of %d", port, ch, len(e.out))
		case ch >= 0 && ph != vcActive:
			return fmt.Errorf("ownership: port %d in phase %d holds output channel %d", port, ph, ch)
		case ch >= 0 && e.out[ch].owner() != int32(port):
			return fmt.Errorf("ownership: port %d streams onto output channel %d, owned by port %d", port, ch, e.out[ch].owner())
		}
	}
	for ch := range e.out {
		owner := e.out[ch].owner()
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
	for i := range e.in {
		held += int64(e.in[i].count)
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
