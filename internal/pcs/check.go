package pcs

// Check is the control unit's invariant checker over live state: the
// Figure 3 registers against the probes, acknowledgments and circuits that
// hold them. Its clauses:
//
//   - free vector: every router's Channel Status word equals a scan of
//     the status registers;
//   - paths: a searching or acknowledged probe's path is a chain of
//     existing links from its source to the node it is at, a circuit's a
//     chain from its source to its destination, and every flit in flight
//     names a hop of its circuit;
//   - holders: each Reserved or Established wave channel is held by
//     exactly one live path — a probe's hop (Reserved under the probe's
//     ID), an acknowledgment's (Reserved ahead of the ack, Established
//     behind it) or a circuit's (Established under the circuit's ID) —
//     and Ack Returned is set exactly on Established channels;
//   - mappings: the Direct and Reverse mappings are inverses along every
//     live path (consecutive hops the path holds map to each other both
//     ways, its first hop has no reverse entry and its last no direct
//     entry), and a Free or Faulty channel has neither;
//   - history: a live probe's History Store entries name distinct nodes
//     and its visited bitset has exactly their bits, the frame at its
//     current depth (when it has one) holds its node's History Store mask,
//     and a pooled probe holds no entry and no set bit.
//
// Check allocates and reads every channel: it runs on snapshot decoding,
// on a watchdog trip and in tests. It follows no index it has not
// range-checked, so any decoded state is safe to hand it.

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
)

// Check returns an error naming the first broken invariant, or nil.
func (e *Engine) Check() error {
	for _, clause := range []func() error{e.checkFree, e.checkPaths, e.checkHolders, e.checkHistory} {
		if err := clause(); err != nil {
			return fmt.Errorf("pcs: %w", err)
		}
	}
	return nil
}

func (e *Engine) checkFree() error {
	k := e.prm.NumSwitches
	want := make([]uint32, len(e.free))
	e.freeWords(want)
	for i, w := range want {
		if e.free[i] != w {
			return fmt.Errorf("free vector: node %d switch %d word %#x, status registers give %#x", i/k, i%k, e.free[i], w)
		}
	}
	return nil
}

// validChannel reports whether ch is a wave channel of an existing link.
func (e *Engine) validChannel(ch Channel) bool {
	return ch.Link >= 0 && int(ch.Link) < len(e.tab.To) && e.tab.To[ch.Link] >= 0 &&
		ch.Switch >= 0 && ch.Switch < e.prm.NumSwitches
}

// checkChain verifies that hops, read as channels on switch sw, form a
// chain of existing links from node `from` to node `to`.
func (e *Engine) checkChain(what string, from, to int, sw, n int, hop func(i int) Channel) error {
	at := from
	for i := 0; i < n; i++ {
		ch := hop(i)
		if !e.validChannel(ch) || ch.Switch != sw {
			return fmt.Errorf("paths: %s path hop %d is channel %+v, not a link on switch %d", what, i, ch, sw)
		}
		if src := int(e.tab.From[ch.Link]); src != at {
			return fmt.Errorf("paths: %s path hop %d leaves node %d, previous hop ends at %d", what, i, src, at)
		}
		at = int(e.tab.To[ch.Link])
	}
	if at != to {
		return fmt.Errorf("paths: %s is at node %d, its path ends at %d", what, to, at)
	}
	return nil
}

func (e *Engine) checkProbe(p *probe) error {
	what := fmt.Sprintf("probe %d", p.id)
	if p.sw < 0 || p.sw >= e.prm.NumSwitches || p.phase > probeWaiting {
		return fmt.Errorf("paths: %s on switch %d in phase %d", what, p.sw, p.phase)
	}
	for _, n := range []int{int(p.src), int(p.dst), int(p.at)} {
		if n < 0 || n >= e.topo.Nodes() {
			return fmt.Errorf("paths: %s from %d to %d stands at %d, outside the %d nodes", what, p.src, p.dst, p.at, e.topo.Nodes())
		}
	}
	if p.phase == probeWaiting && !e.validChannel(p.waitingFor) {
		return fmt.Errorf("paths: %s waits for channel %+v", what, p.waitingFor)
	}
	return e.checkChain(what, int(p.src), int(p.at), p.sw, len(p.path), func(i int) Channel { return p.path[i].channel(p.sw) })
}

func (e *Engine) checkPaths() error {
	for _, p := range e.probes {
		if err := e.checkProbe(p); err != nil {
			return err
		}
	}
	for id, c := range e.circuits {
		what := fmt.Sprintf("circuit %d", id)
		if err := e.checkChain(what, int(c.Src), int(c.Dst), c.Switch, len(c.Path), func(i int) Channel { return c.Path[i] }); err != nil {
			return err
		}
	}
	for _, a := range e.acks {
		if err := e.checkProbe(a.probe); err != nil {
			return err
		}
		if c := a.circ; e.circuits[c.ID] != c || !c.ackPending || a.pos < 0 || a.pos >= len(c.Path) || len(c.Path) != len(a.probe.path) {
			return fmt.Errorf("paths: ack of probe %d stands at hop %d of circuit %d", a.probe.id, a.pos, c.ID)
		}
	}
	for _, td := range e.teardowns {
		if c := td.circ; e.circuits[c.ID] != c || !c.tearingDown || td.next < 0 || td.next >= len(c.Path) {
			return fmt.Errorf("paths: teardown stands at hop %d of circuit %d", td.next, c.ID)
		}
	}
	for _, r := range e.releases {
		if !e.validChannel(r.at) {
			return fmt.Errorf("paths: release of circuit %d stands on channel %+v", r.circID, r.at)
		}
	}
	return nil
}

// heldPath is one live path as dense channel keys, with which of its hops
// it still holds.
type heldPath struct {
	what string
	keys []int32
	held []bool
}

func (e *Engine) checkHolders() error {
	holders := make([]int, len(e.status))
	var paths []heldPath
	// claim records that path p holds hop i if the hop's registers say so;
	// must makes the hop's registers an obligation instead.
	claim := func(p *heldPath, i int, k int32, s Status, owner int64, must bool) error {
		ok := e.status[k] == s && e.owner[k] == owner
		if must && !ok {
			return fmt.Errorf("holders: %s hop %d holds channel %d, which is %v under owner %d", p.what, i, k, e.status[k], e.owner[k])
		}
		p.keys = append(p.keys, k)
		p.held = append(p.held, ok)
		if ok {
			holders[k]++
		}
		return nil
	}
	for _, pr := range e.probes {
		p := heldPath{what: fmt.Sprintf("probe %d", pr.id)}
		for i, h := range pr.path {
			if err := claim(&p, i, e.key(h.channel(pr.sw)), Reserved, int64(pr.id), true); err != nil {
				return err
			}
		}
		paths = append(paths, p)
	}
	acked := make(map[circuit.ID]bool, len(e.acks))
	for _, a := range e.acks {
		p := heldPath{what: fmt.Sprintf("ack of circuit %d", a.circ.ID)}
		for i, ch := range a.circ.Path {
			s, owner := Reserved, int64(a.probe.id)
			if i > a.pos {
				s, owner = Established, int64(a.circ.ID)
			}
			if err := claim(&p, i, e.key(ch), s, owner, true); err != nil {
				return err
			}
		}
		paths = append(paths, p)
		acked[a.circ.ID] = true
	}
	for id, c := range e.circuits {
		if c.ackPending {
			if !acked[id] {
				return fmt.Errorf("holders: circuit %d awaits an ack that is not travelling", id)
			}
			continue
		}
		p := heldPath{what: fmt.Sprintf("circuit %d", id)}
		for i, ch := range c.Path {
			claim(&p, i, e.key(ch), Established, int64(id), false)
		}
		paths = append(paths, p)
	}
	for k, s := range e.status {
		if (s == Reserved || s == Established) && holders[k] != 1 {
			return fmt.Errorf("holders: channel %d is %v under owner %d, held by %d live paths", k, s, e.owner[k], holders[k])
		}
		if e.ackRet[k] != (s == Established) {
			return fmt.Errorf("holders: channel %d is %v with Ack Returned %v", k, s, e.ackRet[k])
		}
		if d, r := e.direct(int32(k)), e.reverse(int32(k)); d < -1 || int(d) >= len(e.status) || r < -1 || int(r) >= len(e.status) ||
			(s == Free || s == Faulty) && (d >= 0 || r >= 0) {
			return fmt.Errorf("mappings: %v channel %d maps to %d and from %d", s, k, d, r)
		}
	}
	for _, p := range paths {
		for i, k := range p.keys {
			if !p.held[i] {
				continue
			}
			if i == 0 && e.reverse(k) != -1 {
				return fmt.Errorf("mappings: %s first hop %d maps back from %d", p.what, k, e.reverse(k))
			}
			if i == len(p.keys)-1 && e.direct(k) != -1 {
				return fmt.Errorf("mappings: %s last hop %d maps on to %d", p.what, k, e.direct(k))
			}
			if i > 0 && p.held[i-1] && (e.direct(p.keys[i-1]) != k || e.reverse(k) != p.keys[i-1]) {
				return fmt.Errorf("mappings: %s hops %d -> %d map %d -> %d and back %d", p.what, p.keys[i-1], k,
					p.keys[i-1], e.direct(p.keys[i-1]), e.reverse(k))
			}
		}
	}
	return nil
}

func (e *Engine) checkHistory() error {
	live := append([]*probe(nil), e.probes...)
	for _, a := range e.acks {
		live = append(live, a.probe)
	}
	for _, p := range live {
		if len(p.histNodes) != len(p.histMasks) {
			return fmt.Errorf("history: probe %d has %d nodes and %d masks", p.id, len(p.histNodes), len(p.histMasks))
		}
		want := make([]uint64, (e.topo.Nodes()+63)/64)
		for _, n := range p.histNodes {
			if n < 0 || int(n) >= e.topo.Nodes() || want[n>>6]&(1<<(n&63)) != 0 {
				return fmt.Errorf("history: probe %d has an entry for node %d out of range or twice", p.id, n)
			}
			want[n>>6] |= 1 << (n & 63)
		}
		if err := checkVisited(p, want); err != nil {
			return err
		}
		if d := len(p.path); d < len(p.frames) {
			if got, want := p.frames[d].hmask, p.histAt(p.at); got != want {
				return fmt.Errorf("history: probe %d's frame at depth %d caches mask %#x, node %d's History Store entry is %#x", p.id, d, got, p.at, want)
			}
		}
	}
	none := make([]uint64, (e.topo.Nodes()+63)/64)
	for _, p := range e.probePool {
		if len(p.histNodes) != 0 {
			return fmt.Errorf("history: pooled probe %d keeps %d History Store entries", p.id, len(p.histNodes))
		}
		if err := checkVisited(p, none); err != nil {
			return err
		}
	}
	return nil
}

// checkVisited compares p's visited bitset with want, the bits of the nodes
// its History Store holds.
func checkVisited(p *probe, want []uint64) error {
	if len(p.visited) != len(want) {
		return fmt.Errorf("history: probe %d has a visited bitset of %d words, want %d", p.id, len(p.visited), len(want))
	}
	for i, w := range p.visited {
		d := w ^ want[i]
		if d == 0 {
			continue
		}
		n := i*64 + bits.TrailingZeros64(d)
		if w&(d&-d) != 0 {
			return fmt.Errorf("history: probe %d marks node %d visited without a History Store entry", p.id, n)
		}
		return fmt.Errorf("history: probe %d has a History Store entry for node %d without its visited bit", p.id, n)
	}
	return nil
}
