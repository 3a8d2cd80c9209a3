package pcs

// Snapshot support. The engine's complete control-plane state serialises:
// the Figure 3 register file (status, owner, ack-returned, both mapping
// registers), the circuit registry in ID order, the in-flight probes in
// slice order (step order is state), acknowledgments with their carried
// probes, teardown and release flits, the ID counters and all statistics.
// Per-cycle scratch (output enumerations, spill buffers) and the object
// pools are excluded — snapshots are taken between cycles, when they are
// logically empty, and restored probes/circuits come from fresh objects.
//
// Closure-carrying work (a probe with a done callback, a teardown with a
// done closure, a circuit with a deferred closure) cannot be serialised;
// EncodeState reports an error instead of writing a lossy snapshot. The
// production path uses LaunchProbeTagged/TeardownNotify, which carry no
// closures by construction.

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

func encodeChannel(w *snapshot.Writer, c Channel) {
	w.I64(int64(c.Link))
	w.Int(c.Switch)
}

func decodeChannel(r *snapshot.Reader) Channel {
	return Channel{Link: topology.LinkID(r.I64()), Switch: r.Int()}
}

func (e *Engine) encodeProbe(w *snapshot.Writer, p *probe) error {
	if p.done != nil {
		return fmt.Errorf("pcs: probe %d carries a done closure and cannot be snapshotted (use LaunchProbeTagged)", p.id)
	}
	w.I64(int64(p.id))
	w.Int(int(p.src))
	w.Int(int(p.dst))
	w.Int(p.sw)
	w.Bool(p.force)
	w.Int(p.maxMis)
	w.I64(p.tag)
	w.Int(int(p.at))
	w.Int(p.misroutes)
	w.U32(uint32(len(p.path)))
	for _, h := range p.path {
		encodeChannel(w, h.ch)
		w.Bool(h.misroute)
	}
	w.U8(uint8(p.phase))
	w.Bool(p.requestedRelease)
	encodeChannel(w, p.waitingFor)
	w.I64(p.waitingOwner)
	w.I64(p.launched)
	// History store: the sparse (node, mask) entries in first-touch order —
	// byte-identical to the dirty-list encoding of the former dense layout.
	w.U32(uint32(len(p.histNodes)))
	for i, n := range p.histNodes {
		w.Int(int(n))
		w.U32(p.histMasks[i])
	}
	return w.Err()
}

func (e *Engine) decodeProbe(r *snapshot.Reader) (*probe, error) {
	p := &probe{}
	p.id = flit.ProbeID(r.I64())
	p.src = topology.Node(r.Int())
	p.dst = topology.Node(r.Int())
	p.sw = r.Int()
	p.force = r.Bool()
	p.maxMis = r.Int()
	p.tag = r.I64()
	p.at = topology.Node(r.Int())
	p.misroutes = r.Int()
	np := r.Count(1 << 26)
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := 0; i < np; i++ {
		p.path = append(p.path, pathHop{ch: decodeChannel(r), misroute: r.Bool()})
	}
	p.phase = probePhase(r.U8())
	p.requestedRelease = r.Bool()
	p.waitingFor = decodeChannel(r)
	p.waitingOwner = r.I64()
	p.launched = r.I64()
	nh := r.Count(1 << 26)
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := 0; i < nh; i++ {
		n := topology.Node(r.Int())
		mask := r.U32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if n < 0 || int(n) >= e.topo.Nodes() {
			return nil, fmt.Errorf("pcs: snapshot history node %d out of range", n)
		}
		p.histNodes = append(p.histNodes, n)
		p.histMasks = append(p.histMasks, mask)
	}
	return p, r.Err()
}

// EncodeState writes the engine's mutable state. It errors if any pending
// work carries a closure (test-only code paths).
func (e *Engine) EncodeState(w *snapshot.Writer) error {
	w.I64(e.now)

	w.U32(uint32(len(e.status)))
	for i := range e.status {
		w.U8(uint8(e.status[i]))
		w.I64(e.owner[i])
		w.Bool(e.ackRet[i])
		w.U32(uint32(e.directMap[i]))
		w.U32(uint32(e.reverseMap[i]))
	}

	// Circuit registry in ID order (canonical; the map has none).
	ids := make([]circuit.ID, 0, len(e.circuits))
	for id := range e.circuits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		c := e.circuits[id]
		if c.deferredDone != nil {
			return fmt.Errorf("pcs: circuit %d carries a deferred teardown closure and cannot be snapshotted (use TeardownNotify)", c.ID)
		}
		w.I64(int64(c.ID))
		w.Int(int(c.Src))
		w.Int(int(c.Dst))
		w.Int(c.Switch)
		w.U32(uint32(len(c.Path)))
		for _, ch := range c.Path {
			encodeChannel(w, ch)
		}
		w.Bool(c.releasePending)
		w.Bool(c.tearingDown)
		w.Bool(c.ackPending)
		w.Bool(c.teardownDeferred)
		w.Bool(c.deferredNotify)
	}

	// Probes in slice order — step iteration order is part of the state.
	w.U32(uint32(len(e.probes)))
	for _, p := range e.probes {
		if err := e.encodeProbe(w, p); err != nil {
			return err
		}
	}

	// Acks embed their probe (an ack's probe is not in e.probes) and refer to
	// their circuit by ID.
	w.U32(uint32(len(e.acks)))
	for i := range e.acks {
		a := &e.acks[i]
		w.I64(int64(a.circ.ID))
		w.Int(a.pos)
		if err := e.encodeProbe(w, a.probe); err != nil {
			return err
		}
	}

	w.U32(uint32(len(e.teardowns)))
	for i := range e.teardowns {
		td := &e.teardowns[i]
		if td.done != nil {
			return fmt.Errorf("pcs: teardown of circuit %d carries a closure and cannot be snapshotted (use TeardownNotify)", td.circ.ID)
		}
		w.I64(int64(td.circ.ID))
		w.Int(td.next)
		w.Bool(td.notify)
	}

	w.U32(uint32(len(e.releases)))
	for i := range e.releases {
		w.I64(int64(e.releases[i].circID))
		encodeChannel(w, e.releases[i].at)
	}

	w.I64(int64(e.nextProbe))
	w.I64(int64(e.nextCircuit))

	c := &e.Ctr
	for _, v := range []int64{
		c.ProbesLaunched, c.ProbesSucceeded, c.ProbesFailed, c.Misroutes,
		c.Backtracks, c.ForceWaits, c.ReleasesSent, c.ReleasesDiscarded,
		c.Teardowns, c.ControlHops, c.FaultsInjected, c.FaultRepairs,
		c.FaultCircuitsTorn, c.FaultProbesKilled,
	} {
		w.I64(v)
	}
	return w.Err()
}

// DecodeState restores state written by EncodeState into an engine built
// with the same topology and Params.
func (e *Engine) DecodeState(r *snapshot.Reader) error {
	e.now = r.I64()

	nch := r.Count(1 << 26)
	if nch != len(e.status) {
		return fmt.Errorf("pcs: snapshot has %d wave channels, engine has %d (topology/params mismatch)", nch, len(e.status))
	}
	for i := range e.status {
		e.status[i] = Status(r.U8())
		e.owner[i] = r.I64()
		e.ackRet[i] = r.Bool()
		e.directMap[i] = int32(r.U32())
		e.reverseMap[i] = int32(r.U32())
	}

	e.circuits = make(map[circuit.ID]*Circuit)
	e.probes = e.probes[:0]
	e.acks = e.acks[:0]
	e.teardowns = e.teardowns[:0]
	e.releases = e.releases[:0]
	e.probeSpill = e.probeSpill[:0]
	e.ackSpill = e.ackSpill[:0]
	e.tdSpill = e.tdSpill[:0]
	e.relSpill = e.relSpill[:0]
	e.probePool = e.probePool[:0]
	e.circPool = e.circPool[:0]

	ncirc := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < ncirc; i++ {
		c := &Circuit{}
		c.ID = circuit.ID(r.I64())
		c.Src = topology.Node(r.Int())
		c.Dst = topology.Node(r.Int())
		c.Switch = r.Int()
		np := r.Count(1 << 26)
		if r.Err() != nil {
			return r.Err()
		}
		for j := 0; j < np; j++ {
			c.Path = append(c.Path, decodeChannel(r))
		}
		c.releasePending = r.Bool()
		c.tearingDown = r.Bool()
		c.ackPending = r.Bool()
		c.teardownDeferred = r.Bool()
		c.deferredNotify = r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		e.circuits[c.ID] = c
	}

	nprobes := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < nprobes; i++ {
		p, err := e.decodeProbe(r)
		if err != nil {
			return err
		}
		e.probes = append(e.probes, p)
	}

	nacks := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < nacks; i++ {
		id := circuit.ID(r.I64())
		pos := r.Int()
		p, err := e.decodeProbe(r)
		if err != nil {
			return err
		}
		c, ok := e.circuits[id]
		if !ok {
			return fmt.Errorf("pcs: snapshot ack refers to unknown circuit %d", id)
		}
		e.acks = append(e.acks, ack{circ: c, pos: pos, probe: p})
	}

	ntd := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < ntd; i++ {
		id := circuit.ID(r.I64())
		next := r.Int()
		notify := r.Bool()
		c, ok := e.circuits[id]
		if !ok {
			return fmt.Errorf("pcs: snapshot teardown refers to unknown circuit %d", id)
		}
		e.teardowns = append(e.teardowns, teardown{circ: c, next: next, notify: notify})
	}

	nrel := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < nrel; i++ {
		e.releases = append(e.releases, release{circID: circuit.ID(r.I64()), at: decodeChannel(r)})
	}

	e.nextProbe = flit.ProbeID(r.I64())
	e.nextCircuit = circuit.ID(r.I64())

	c := &e.Ctr
	for _, v := range []*int64{
		&c.ProbesLaunched, &c.ProbesSucceeded, &c.ProbesFailed, &c.Misroutes,
		&c.Backtracks, &c.ForceWaits, &c.ReleasesSent, &c.ReleasesDiscarded,
		&c.Teardowns, &c.ControlHops, &c.FaultsInjected, &c.FaultRepairs,
		&c.FaultCircuitsTorn, &c.FaultProbesKilled,
	} {
		*v = r.I64()
	}
	return r.Err()
}
