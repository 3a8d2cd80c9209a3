package pcs

// Snapshot support. The engine's complete control-plane state serialises:
// the Figure 3 register file (status, owner, ack-returned, both mapping
// registers, written as the channel key mapped to or -1 for none, though
// the engine stores key+1), the circuit registry in ID order, the in-flight
// probes in slice order (step order is state), acknowledgments with their
// carried probes, teardown and release flits, the ID counters and all
// statistics. Spill buffers and the object pools are excluded — snapshots
// are taken between cycles, when they are logically empty, and restored
// probes/circuits come from fresh objects. Derived state is excluded too
// and rebuilt on restore: the per-router free words are recomputed from the
// decoded status registers; a probe's path hop is written as its link
// alone, since it always lies on the probe's own switch; and a probe's
// search frames (per-depth profitable masks and History Store indices) are
// derived from its path and History Store, so a restored probe rebuilds
// them on its next step; its visited-node bitset is rebuilt from the
// History Store's nodes as they are decoded. Decoding refuses only what it
// cannot represent or resolve (a link, switch or History Store node out of
// range, an unknown circuit) and then runs Check, which judges the
// registers against the paths: path chains, one holder per channel, the
// mappings and the History Store.
//
// Pending work is pure data — every completion reports through a handler
// registered once (SetProbeDone, SetCircuitFreed) — so encoding cannot fail.

import (
	"repro/internal/circuit"
	"repro/internal/snapshot"
)

func walkChannel(c *snapshot.Codec, ch *Channel) {
	snapshot.I64(c, &ch.Link)
	snapshot.I64(c, &ch.Switch)
}

// walkProbe walks one probe; the decoder allocates it fresh.
func (e *Engine) walkProbe(c *snapshot.Codec, pp **probe) {
	if c.Decoding() {
		*pp = e.newProbe()
	}
	p := *pp
	snapshot.I64(c, &p.id)
	snapshot.I64(c, &p.src)
	snapshot.I64(c, &p.dst)
	snapshot.I64(c, &p.sw)
	if c.Decoding() && (p.sw < 0 || p.sw >= e.prm.NumSwitches) {
		c.Failf("pcs: snapshot probe %d on switch %d of %d", p.id, p.sw, e.prm.NumSwitches)
	}
	c.Bool(&p.force)
	snapshot.I64(c, &p.maxMis)
	snapshot.I64(c, &p.tag)
	snapshot.I64(c, &p.at)
	snapshot.I64(c, &p.misroutes)
	// A hop is written as its link: it always lies on the probe's switch.
	snapshot.Slice(c, &p.path, func(h *pathHop) {
		link := int64(h.link)
		snapshot.I64(c, &link)
		c.Bool(&h.misroute)
		if c.Decoding() && c.Err() == nil {
			if link < 0 || link >= int64(len(e.tab.To)) {
				c.Failf("pcs: snapshot probe %d path link %d out of range", p.id, link)
				return
			}
			h.link = int32(link)
			h.key = e.key(h.channel(p.sw))
		}
	})
	snapshot.U8(c, &p.phase)
	c.Bool(&p.requestedRelease)
	walkChannel(c, &p.waitingFor)
	snapshot.I64(c, &p.waitingOwner)
	snapshot.I64(c, &p.launched)
	// History store: the sparse (node, mask) entries in first-touch order —
	// byte-identical to the dirty-list encoding of the former dense layout.
	// The visited bitset is derived: decoding sets the bit of each node.
	n := len(p.histNodes)
	c.Count(&n)
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			p.histNodes = append(p.histNodes, 0)
			p.histMasks = append(p.histMasks, 0)
		}
		snapshot.I64(c, &p.histNodes[i])
		snapshot.U32(c, &p.histMasks[i])
		if node := p.histNodes[i]; c.Decoding() && c.Err() == nil {
			if node < 0 || int(node) >= e.topo.Nodes() {
				c.Failf("pcs: snapshot probe %d History Store node %d out of range", p.id, node)
				return
			}
			p.visited[node>>6] |= 1 << (node & 63)
		}
	}
}

// circuitRef walks a reference to a registered circuit as the circuit's
// ID; the decoder re-links it to the circuit the registry decoded.
func (e *Engine) circuitRef(c *snapshot.Codec, circ **Circuit, what string) {
	var id circuit.ID
	if !c.Decoding() {
		id = (*circ).ID
	}
	snapshot.I64(c, &id)
	if c.Decoding() && c.Err() == nil {
		if *circ = e.circuits[id]; *circ == nil {
			c.Failf("pcs: snapshot %s refers to unknown circuit %d", what, id)
		}
	}
}

// State encodes or decodes the engine's mutable state. Decoding requires an
// engine built with the same topology and Params.
func (e *Engine) State(c *snapshot.Codec) error {
	snapshot.I64(c, &e.now)

	c.Fixed(len(e.status), "pcs wave channels", func(i int) {
		snapshot.U8(c, &e.status[i])
		snapshot.I64(c, &e.owner[i])
		c.Bool(&e.ackRet[i])
		d, r := e.direct(int32(i)), e.reverse(int32(i))
		snapshot.U32(c, &d)
		snapshot.U32(c, &r)
		e.directMap1[i], e.reverseMap1[i] = d+1, r+1
	})

	if c.Decoding() {
		e.rebuildFree()
		e.probeSpill = e.probeSpill[:0]
		e.ackSpill = e.ackSpill[:0]
		e.tdSpill = e.tdSpill[:0]
		e.relSpill = e.relSpill[:0]
		e.probePool = e.probePool[:0]
		e.circPool = e.circPool[:0]
	}

	snapshot.SortedMap(c, &e.circuits, func(id *circuit.ID, cp **Circuit) {
		if c.Decoding() {
			*cp = &Circuit{}
		}
		ci := *cp
		snapshot.I64(c, &ci.ID)
		snapshot.I64(c, &ci.Src)
		snapshot.I64(c, &ci.Dst)
		snapshot.I64(c, &ci.Switch)
		snapshot.Slice(c, &ci.Path, func(ch *Channel) { walkChannel(c, ch) })
		c.Bool(&ci.releasePending)
		c.Bool(&ci.tearingDown)
		c.Bool(&ci.ackPending)
		c.Bool(&ci.teardownDeferred)
		*id = ci.ID
	})

	// Probes in slice order — step iteration order is part of the state.
	snapshot.Slice(c, &e.probes, func(p **probe) { e.walkProbe(c, p) })

	// Acks embed their probe (an ack's probe is not in e.probes) and refer to
	// their circuit by ID.
	snapshot.Slice(c, &e.acks, func(a *ack) {
		e.circuitRef(c, &a.circ, "ack")
		snapshot.I64(c, &a.pos)
		e.walkProbe(c, &a.probe)
	})

	snapshot.Slice(c, &e.teardowns, func(td *teardown) {
		e.circuitRef(c, &td.circ, "teardown")
		snapshot.I64(c, &td.next)
	})

	snapshot.Slice(c, &e.releases, func(r *release) {
		snapshot.I64(c, &r.circID)
		walkChannel(c, &r.at)
	})

	snapshot.I64(c, &e.nextProbe)
	snapshot.I64(c, &e.nextCircuit)

	ctr := &e.Ctr
	for _, v := range []*int64{
		&ctr.ProbesLaunched, &ctr.ProbesSucceeded, &ctr.ProbesFailed, &ctr.Misroutes,
		&ctr.Backtracks, &ctr.ForceWaits, &ctr.ReleasesSent, &ctr.ReleasesDiscarded,
		&ctr.Teardowns, &ctr.ControlHops, &ctr.FaultsInjected, &ctr.FaultRepairs,
		&ctr.FaultCircuitsTorn, &ctr.FaultProbesKilled,
	} {
		snapshot.I64(c, v)
	}
	if c.Decoding() && c.Err() == nil {
		if err := e.Check(); err != nil {
			return c.Failf("snapshot: %w", err)
		}
	}
	return c.Err()
}
