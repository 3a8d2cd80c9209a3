package wormhole

// This file implements the activity-driven cycle engine: per-cycle work
// proportional to the ports that can possibly act — not to the size of the
// network's port state. A pass over an empty set returns at once, so an
// idle engine costs the same per cycle on any fabric.
//
// Two membership sets cover the global input-port space (link VCs
// followed by injection ports, the index space both passes walk), one per
// non-idle phase:
//
//	port in routing  ⇔  phase == vcRouting  (a header waits for an output)
//	port in active   ⇔  phase == vcActive   (an output is held; flits stream)
//
// Each set is two-level: one bit per port in words, one bit per non-zero
// word in sum, and a member count. The allocation pass walks routing and
// the traversal pass walks active, each in rotating port order from rr: it
// peels summary bits, then word bits, over [start, total) and then
// [0, start). Every port a pass skips is one whose guard would have failed
// without side effects — allocation acts only on vcRouting ports,
// traversal only on vcActive ports, and idle ports on neither — so each
// pass visits exactly the subsequence of ports where a scan of every port
// would do something, in the same order. Check's port-set clause holds the
// sets, summaries, counts and start against the port phases.
//
// Membership changes only at phase transitions, which happen on a handful of
// events: injection into an empty source queue, a head arriving at an idle
// VC, a header winning an output, a tail flit leaving its port, and recovery
// re-injects/aborts. Every transition site goes through setPhase, which
// writes the phase and both sets together; it is O(1) and allocation-free
// (the bitmaps are sized once at construction). Both sets, with their
// summaries and counts, and the rotation start (rr modulo NumPorts,
// advanced with rr) are derived state: a snapshot carries none of them, and
// decoding rebuilds them from the port phases and rr.
//
// The switch-allocation busy flags cost nothing to reset: outLinkBusy and
// inPortBusy hold the stamp of the traversal pass that last claimed each
// entry, and an entry is busy only while its stamp equals the current pass.
// A channel's arrived stamp works the same way: its newest flit is held
// back only while the stamp equals the current pass. Each traversal pass
// takes the next stamp, so every flag falls free at once without a
// clearing sweep.

// portSet is a two-level membership bitmap over the global input-port
// space: bit p of words is port p, bit w of sum is set while words[w] is
// non-zero, and n counts the members.
type portSet struct {
	words, sum []uint64
	n          int
}

func newPortSet(ports int) portSet {
	nw := (ports + 63) / 64
	return portSet{words: make([]uint64, nw), sum: make([]uint64, (nw+63)/64)}
}

func (s *portSet) add(port int) {
	w := port >> 6
	s.words[w] |= 1 << uint(port&63)
	s.sum[w>>6] |= 1 << uint(w&63)
	s.n++
}

func (s *portSet) remove(port int) {
	w := port >> 6
	if s.words[w] &^= 1 << uint(port&63); s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << uint(w&63)
	}
	s.n--
}

// reset empties the set.
func (s *portSet) reset() {
	clear(s.words)
	clear(s.sum)
	s.n = 0
}

// setPhase moves port from phase *ph to phase to, keeping the routing and
// active sets in step.
func (e *Engine) setPhase(port int, ph *vcPhase, to vcPhase) {
	from := *ph
	*ph = to
	if from == to {
		return
	}
	switch from {
	case vcRouting:
		e.routing.remove(port)
	case vcActive:
		e.active.remove(port)
	}
	switch to {
	case vcRouting:
		e.routing.add(port)
	case vcActive:
		e.active.add(port)
	}
}

// ActivePorts returns the number of input ports (link VCs plus injection
// ports) that are not idle — the size of routing ∪ active; NumPorts is the
// total.
func (e *Engine) ActivePorts() int { return e.routing.n + e.active.n }

// advanceRotation moves the arbitration offset one step; start follows rr
// modulo NumPorts without dividing.
func (e *Engine) advanceRotation() {
	e.rr++
	if e.start++; e.start == e.NumPorts() {
		e.start = 0
	}
}

// nextPass starts a traversal pass with a fresh stamp, so every busy flag
// and arrived stamp of the last pass reads free. The stamp is taken before
// first use, so the zero entries of a fresh or restored engine never
// match; when the counter wraps, every stamp is cleared once.
func (e *Engine) nextPass() {
	e.pass++
	if e.pass == 0 {
		clear(e.outLinkBusy)
		clear(e.inPortBusy)
		for i := range e.chans {
			e.chans[i].arrived = 0
		}
		e.pass = 1
	}
}

// segWord returns word w of bitmap set restricted to the bits [from, to).
// The passes use it at both levels: over ports in a set's words, and over
// word indices in its summary.
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
