package wormhole

// This file implements the activity-driven cycle engine: per-cycle work
// proportional to the number of ports that can possibly act, not to the size
// of the network.
//
// Two membership bitmaps cover the global input-port space (link VCs
// followed by injection ports, the index space both passes walk), one per
// non-idle phase:
//
//	port in routingSet  ⇔  phase == vcRouting  (a header waits for an output)
//	port in activeSet   ⇔  phase == vcActive   (an output is held; flits stream)
//
// The allocation pass walks routingSet and the traversal pass walks
// activeSet, each in the same rotating order as the full scan. Every port a
// pass skips is one whose guard would have failed without side effects —
// allocation acts only on vcRouting ports, traversal only on vcActive ports,
// and idle ports on neither — so each pass visits exactly the subsequence
// of ports where the full scan does something, in the same order. That
// makes the active-set engine bit-identical to the full scan, which is kept
// behind Params.DisableActivityTracking as the cross-check oracle.
//
// Membership changes only at phase transitions, which happen on a handful of
// events: injection into an empty source queue, a flit arriving at an idle
// VC, a header winning an output, a tail flit leaving its port, and recovery
// re-injects/aborts. Every transition site goes through setPhase, which
// writes the phase and both bitmaps together; it is O(1) and
// allocation-free (the bitmaps are sized once at construction).
//
// The switch-allocation busy flags get the same treatment: instead of
// clearing every outLinkBusy/inPortBusy entry each cycle — O(links+nodes) —
// the mark helpers record which entries were set and the next cycle clears
// only those. The flags are written and read only inside one traversal pass,
// so deferred clearing is invisible to the engine's decisions.

// setPhase moves port from phase *ph to phase to, keeping routingSet,
// activeSet and activeCount in step (the bitmaps stay empty when activity
// tracking is disabled).
func (e *Engine) setPhase(port int, ph *vcPhase, to vcPhase) {
	from := *ph
	*ph = to
	if !e.trackActivity || from == to {
		return
	}
	w, b := port>>6, uint64(1)<<uint(port&63)
	switch from {
	case vcRouting:
		e.routingSet[w] &^= b
	case vcActive:
		e.activeSet[w] &^= b
	default:
		e.activeCount++
	}
	switch to {
	case vcRouting:
		e.routingSet[w] |= b
	case vcActive:
		e.activeSet[w] |= b
	default:
		e.activeCount--
	}
}

// ActivePorts returns the number of input ports (link VCs plus injection
// ports) that are not idle — the size of routingSet ∪ activeSet. It is 0
// when activity tracking is disabled; NumPorts is the total.
func (e *Engine) ActivePorts() int { return e.activeCount }

// markOutBusy claims output physical link l for this cycle's traversal pass.
func (e *Engine) markOutBusy(l int) {
	e.outLinkBusy[l] = true
	if e.trackActivity {
		e.dirtyOutLinks = append(e.dirtyOutLinks, int32(l))
	}
}

// markInBusy claims physical input port idx for this cycle's traversal pass.
func (e *Engine) markInBusy(idx int) {
	e.inPortBusy[idx] = true
	if e.trackActivity {
		e.dirtyInPorts = append(e.dirtyInPorts, int32(idx))
	}
}

// clearBusy resets the switch-allocation flags at the start of a traversal
// pass: only the entries dirtied last cycle when tracking, the full arrays
// in oracle mode. Both helpers above set a flag only after observing it
// false, so the dirty lists carry no duplicates and stay bounded by the
// flits moved per cycle.
func (e *Engine) clearBusy() {
	if !e.trackActivity {
		for i := range e.outLinkBusy {
			e.outLinkBusy[i] = false
		}
		for i := range e.inPortBusy {
			e.inPortBusy[i] = false
		}
		return
	}
	for _, l := range e.dirtyOutLinks {
		e.outLinkBusy[l] = false
	}
	e.dirtyOutLinks = e.dirtyOutLinks[:0]
	for _, p := range e.dirtyInPorts {
		e.inPortBusy[p] = false
	}
	e.dirtyInPorts = e.dirtyInPorts[:0]
}
