package wormhole

// This file implements the activity-driven cycle engine: per-cycle work
// proportional to the ports that can possibly act, plus one bitmap load per
// 64 ports per pass — not to the size of the network's port state.
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
// The switch-allocation busy flags cost nothing to reset: outLinkBusy and
// inPortBusy hold the stamp of the traversal pass that last claimed each
// entry, and an entry is busy only while its stamp equals the current pass.
// Each traversal pass takes the next stamp, so every flag falls free at once
// without a clearing sweep; both modes share this path.

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

// nextPass starts a traversal pass: no arrivals, and a fresh stamp so every
// busy flag of the last pass reads free. The stamp is taken before first
// use, so the zero entries of a fresh or restored engine never match; when
// the counter wraps, the arrays are cleared once.
func (e *Engine) nextPass() {
	e.arrivals = e.arrivals[:0]
	e.pass++
	if e.pass == 0 {
		clear(e.outLinkBusy)
		clear(e.inPortBusy)
		e.pass = 1
	}
}

// segWord returns bitmap word w of set restricted to the ports [from, to).
func segWord(set []uint64, w, from, to int) uint64 {
	word := set[w]
	if w == from>>6 {
		word &= ^uint64(0) << uint(from&63)
	}
	if w == (to-1)>>6 && to&63 != 0 {
		word &= 1<<uint(to&63) - 1
	}
	return word
}
