package wormhole

// Deadlock recovery by abort-and-retry (compressionless-routing style, the
// alternative the paper's related work contrasts with avoidance): when a
// message makes no progress for RecoveryTimeout cycles while holding network
// resources, every one of its flits is removed from the network, its channel
// reservations and buffer slots are released (resolving any deadlock cycle it
// participates in), and the whole message is re-injected at its source after
// a deterministic per-message backoff. This permits deliberately unsafe
// routing functions (routing.DORNoDateline) whose dependency graphs are
// cyclic — deadlocks then actually form and are actually broken.
//
// All bookkeeping lives in the message arena (msgSlot fields), not in
// MsgID-keyed maps: the timeout scan walks slots in index order, which is
// deterministic across runs — map iteration order is not — and allocates
// nothing.

import (
	"fmt"

	"repro/internal/topology"
)

// RecoveryParams tunes abort-and-retry. The zero value disables recovery.
type RecoveryParams struct {
	// Timeout is the progress-free cycles a message may hold network
	// resources before being aborted. Zero disables recovery.
	Timeout int64
	// MaxBackoff caps the deterministic retry delay.
	MaxBackoff int64
}

// recoveryState is the engine's per-run recovery bookkeeping.
type recoveryState struct {
	prm RecoveryParams
	// parked holds the arena slots of aborted messages waiting out their
	// backoff (the slot's parked flag guards against double aborts).
	parked []parkedSlot

	// Aborts counts recovery events.
	Aborts int64
	// Retaken counts the flits aborts took back after their delivery; the
	// retry delivers them again. It is not snapshotted: it feeds only the
	// fabric's flit balance, whose baseline a restore resets.
	Retaken int64
}

type parkedSlot struct {
	slot    int32
	readyAt int64
}

// EnableRecovery switches abort-and-retry on. It must be called before any
// traffic is injected.
func (e *Engine) EnableRecovery(prm RecoveryParams) error {
	if prm.Timeout <= 0 {
		return fmt.Errorf("wormhole: recovery timeout must be positive, got %d", prm.Timeout)
	}
	if prm.MaxBackoff <= 0 {
		prm.MaxBackoff = prm.Timeout * 8
	}
	e.recovery = &recoveryState{prm: prm}
	return nil
}

// RecoveryAborts returns the abort count (0 when recovery is disabled).
func (e *Engine) RecoveryAborts() int64 {
	if e.recovery == nil {
		return 0
	}
	return e.recovery.Aborts
}

// noteProgress records flit movement for the recovery timer.
func (e *Engine) noteProgress(slot int32, now int64) {
	if e.recovery != nil {
		sl := &e.slots[slot]
		sl.lastProgress = now
		sl.hasProgress = true
	}
}

// stepRecovery runs at the start of each cycle: re-inject parked messages
// whose backoff elapsed and abort messages that timed out. It reports
// whether it aborted any.
func (e *Engine) stepRecovery(now int64) (aborted bool) {
	r := e.recovery
	if r == nil {
		return false
	}
	// Reinjection.
	kept := r.parked[:0]
	for _, p := range r.parked {
		if p.readyAt <= now {
			sl := &e.slots[p.slot]
			e.queueAtSource(p.slot)
			sl.lastProgress = now
			sl.hasProgress = true
			sl.parked = false
		} else {
			kept = append(kept, p)
		}
	}
	r.parked = kept

	// Timeout scan in slot order. Only messages holding network resources are
	// aborted; a message still entirely in its source queue holds nothing and
	// cannot be part of a deadlock.
	for s := range e.slots {
		sl := &e.slots[s]
		if !sl.live || sl.parked {
			continue // free slot, or already out of the network on backoff
		}
		if !sl.hasProgress {
			sl.lastProgress = now
			sl.hasProgress = true
			continue
		}
		if now-sl.lastProgress <= r.prm.Timeout {
			continue
		}
		if !e.holdsNetworkResources(int32(s)) {
			sl.lastProgress = now // nothing to free; keep waiting
			continue
		}
		e.abort(int32(s), now)
		aborted = true
	}
	return aborted
}

// holdsNetworkResources reports whether any flit of the message in slot s
// occupies a channel buffer or the message is mid-injection.
func (e *Engine) holdsNetworkResources(s int32) bool {
	p := &e.inj[e.slots[s].msg.Src]
	for qi := p.head; qi < len(p.queue); qi++ {
		if p.queue[qi] == s {
			return qi == p.head && p.sent > 0
		}
	}
	// Not in the source queue at all: its flits are in the network.
	return true
}

// abort removes every flit of the message in slot s from the network,
// releases its channel state, and parks the message for a deterministic
// backoff.
func (e *Engine) abort(s int32, now int64) {
	r := e.recovery
	r.Aborts++
	sl := &e.slots[s]
	m := sl.msg

	// 1. Scrub link VC buffers. A VC streaming m (its front message)
	// releases its output allocation and recycles for whatever is behind.
	// held counts the flits of m still in the engine; the rest were
	// delivered and will be delivered again.
	held := 0
	for ch := range e.chans {
		held += int(e.scrubChannel(int32(ch), s))
	}

	// 2. Source injection port.
	p := &e.inj[m.Src]
	for qi := p.head; qi < len(p.queue); qi++ {
		if p.queue[qi] != s {
			continue
		}
		if qi == p.head {
			held += m.Len - p.sent
			e.retireFront(topology.Node(m.Src), p)
		} else {
			held += m.Len
			p.queue = append(p.queue[:qi], p.queue[qi+1:]...)
		}
		break
	}
	r.Retaken += int64(m.Len - held)

	// 3. Park with deterministic, message-staggered backoff (identical
	// simultaneous retries would re-collide forever).
	tries := sl.retries
	sl.retries = tries + 1
	backoff := r.prm.Timeout/2 + int64(tries)*r.prm.Timeout + int64(m.ID%13)*3
	if backoff > r.prm.MaxBackoff {
		backoff = r.prm.MaxBackoff
	}
	r.parked = append(r.parked, parkedSlot{slot: s, readyAt: now + backoff})
	sl.parked = true
	sl.hasProgress = false
}

// scrubChannel deletes every buffered flit of the message in slot s from
// channel ch, keeping the order of the other messages, returns their
// credits and the count removed. A front of s gives way to the first
// queued message even when none of its flits is buffered, and a VC that
// streamed s retires.
func (e *Engine) scrubChannel(ch, s int32) int32 {
	v := &e.chans[ch]
	if v.front1 == s+1 {
		streaming := v.phase == vcActive
		removed := min(v.count, v.flen-v.seq)
		v.count -= removed
		v.spent -= removed
		e.popFront(ch, v)
		if streaming {
			e.retireVC(ch, v)
		}
		return removed
	}
	q := e.msgq[ch*e.depth:][:v.qn]
	rest := v.count - (v.flen - v.seq) // the flits behind the front message
	for i, t := range q {
		n := int32(e.slots[t].msg.Len)
		if i == len(q)-1 {
			n = rest // the last message may still be arriving
		}
		if t == s {
			copy(q[i:], q[i+1:])
			v.qn--
			v.count -= n
			v.spent -= n
			return n
		}
		rest -= n
	}
	return 0
}
