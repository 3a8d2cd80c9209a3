// Package pcs implements the pipelined-circuit-switching routing control
// unit of the wave router (paper section 2): the status registers of
// Figure 3 (Channel Status, Direct and Reverse Channel Mappings, History
// Store, Ack Returned), the MB-m misrouting-backtracking probe protocol of
// Gaughan & Yalamanchili [12], and the control-flit machinery for
// acknowledgments, circuit teardown and the CLRP Force-phase release
// requests, including the race rules Theorem 1's proof relies on (the first
// release request wins, duplicates and stale requests are discarded).
//
// All control traffic moves one hop per cycle on the dedicated single-flit
// control channels. The package is independent of the wormhole engine: the
// paper's two switching techniques "do not interact. Each switching technique
// uses its own set of resources."
package pcs

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/topology"
)

// Channel identifies one wave physical channel: a directed link and the wave
// switch S_{Switch+1} it belongs to (Switch is 0-based over the k wave
// switches).
type Channel struct {
	Link   topology.LinkID
	Switch int
}

// Status is the Channel Status register value (Figure 3), extended with the
// faulty state the paper mentions ("It can be easily extended to handle
// faulty channels").
type Status uint8

const (
	// Free: available for reservation.
	Free Status = iota
	// Reserved: held by a probe; the circuit is being established.
	Reserved
	// Established: part of a circuit whose acknowledgment has returned.
	Established
	// Faulty: statically failed; never selectable.
	Faulty
)

func (s Status) String() string {
	switch s {
	case Free:
		return "free"
	case Reserved:
		return "reserved"
	case Established:
		return "established"
	case Faulty:
		return "faulty"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Host is the interface back into the network-interface layer; the CLRP
// Force phase needs to consult and manipulate circuit caches at arbitrary
// nodes.
type Host interface {
	// RequestLocalRelease asks node n's circuit cache for an evictable
	// circuit whose source output channel satisfies wanted; the host marks it
	// release-requested (tearing it down once idle) and returns the channel
	// it will free, or ok=false when no local circuit qualifies.
	RequestLocalRelease(n topology.Node, wanted func(Channel) bool) (Channel, bool)
	// RequestRemoteRelease tells the source NI of circuit id that a remote
	// node requests its release. It fires when a release control flit reaches
	// the circuit's source.
	RequestRemoteRelease(id circuit.ID)
}

// SetupResult reports the outcome of one probe attempt.
type SetupResult struct {
	Probe   flit.ProbeID
	OK      bool
	Circuit circuit.ID
	// First is the output channel at the source node (the Circuit Cache
	// Channel field) — valid when OK.
	First Channel
	// PathLen is the circuit length in hops — valid when OK.
	PathLen int
	// Cycles is the setup latency from launch to acknowledgment (or failure).
	Cycles int64
}

// Circuit is the engine's registry entry for one physical circuit.
type Circuit struct {
	ID     circuit.ID
	Src    topology.Node
	Dst    topology.Node
	Switch int
	Path   []Channel
	// releasePending dedups release requests: the first control flit
	// initiates the release, later ones are discarded (Theorem 1).
	releasePending bool
	// tearingDown marks that a teardown flit is travelling the circuit.
	tearingDown bool
	// ackPending marks that the setup acknowledgment is still travelling; a
	// teardown requested meanwhile is deferred until it lands (the flits
	// would otherwise cross and corrupt channel state).
	ackPending bool
	// teardownDeferred queues a teardown request that arrived mid-ack.
	teardownDeferred bool
}

// Counters aggregates the engine's protocol statistics.
type Counters struct {
	ProbesLaunched    int64
	ProbesSucceeded   int64
	ProbesFailed      int64
	Misroutes         int64
	Backtracks        int64
	ForceWaits        int64
	ReleasesSent      int64
	ReleasesDiscarded int64
	Teardowns         int64
	ControlHops       int64
	// Dynamic-fault accounting (InjectDynamicFault / RepairFault).
	FaultsInjected    int64
	FaultRepairs      int64
	FaultCircuitsTorn int64
	FaultProbesKilled int64
}

// Params configures the PCS engine.
type Params struct {
	// NumSwitches is k, the number of wave-pipelined switches per router.
	NumSwitches int
	// MaxMisroutes is m in MB-m: the misrouting budget per probe.
	MaxMisroutes int
}

// DefaultParams matches the experiment baseline: two wave switches and MB-2.
func DefaultParams() Params { return Params{NumSwitches: 2, MaxMisroutes: 2} }

func (p Params) validate() error {
	if p.NumSwitches < 1 {
		return fmt.Errorf("pcs: NumSwitches must be >= 1, got %d", p.NumSwitches)
	}
	if p.MaxMisroutes < 0 || p.MaxMisroutes > flit.MaxMisroutes {
		return fmt.Errorf("pcs: MaxMisroutes must be in [0,%d], got %d", flit.MaxMisroutes, p.MaxMisroutes)
	}
	return nil
}

// probePhase is a probe's dynamic state.
type probePhase uint8

const (
	probeAdvancing probePhase = iota
	probeWaiting              // Force probe waiting on an established circuit
)

// pathHop is one hop a probe has reserved: the link, its dense channel key
// on the probe's switch (the switch is the probe's own), and whether the hop
// was a misroute. 12 bytes.
type pathHop struct {
	link     int32
	key      int32
	misroute bool
}

// channel returns the wave channel h reserves on switch sw.
func (h pathHop) channel(sw int) Channel {
	return Channel{Link: topology.LinkID(h.link), Switch: sw}
}

// frame is one depth of a probe's depth-first search: the masks the MB-m
// step reads at that depth's router, next to the router's Channel Status
// word. Ports are local output ports (bit p is link first+p). 28 bytes.
//
// hmask is a copy of the node's History Store mask, so a step reads it
// from the frame without a branch on hist or a second load. pushFrame
// copies it from the store and markHistory writes through to both. A path
// may revisit a node, and a deeper frame at the same node then marks the
// store while this frame's copy stands still, so probeBacktrack refreshes
// the parent frame's copy from the store.
type frame struct {
	hist  int32  // the node's History Store entry, -1 until the probe first takes an output there
	first int32  // the node's first link slot
	cs    int32  // index of the node's Channel Status word on the probe's switch
	top   int32  // first profitable port in probe order, -1 when none is profitable
	back  uint32 // bit of the port back along the arrival link, 0 at the source
	prof  uint32 // profitable ports, the back port excluded
	hmask uint32 // the node's History Store mask (0 while hist is -1)
}

// probe is the in-flight representation of a Figure 4 routing probe plus the
// search bookkeeping MB-m needs. The fields every step reads come first, so
// they share the object's first cache line.
type probe struct {
	// frames[d] is the search state at depth d of path (frames[0] is the
	// source). A frame's masks depend only on the node, destination, arrival
	// link and switch, and the arrival link is the path hop below, so a frame
	// stays valid until the probe backtracks out of it: advancing pushes a
	// frame, backtracking pops one, and the parent's frame is reused with
	// its History Store mask refreshed. Frames are derived from path and the
	// History Store; a fresh or restored probe has none and builds them on
	// its next step (curFrame).
	frames    []frame
	path      []pathHop
	at        topology.Node
	dst       topology.Node
	misroutes int
	maxMis    int
	sw        int
	phase     probePhase
	force     bool

	id  flit.ProbeID
	src topology.Node
	// tag is caller context handed back to the SetProbeDone handler (the
	// protocol layer stores the attempt number).
	tag int64

	// Waiting bookkeeping (Force phase).
	requestedRelease bool
	waitingFor       Channel
	waitingOwner     int64 // circuit ID expected to release waitingFor

	// histNodes/histMasks are this probe's slice of the distributed History
	// Store: the mask of outputs already searched, sparse parallel arrays in
	// first-touch order (histNodes[i] has mask histMasks[i]). A contended
	// probe visits a dozen nodes or more (a frame push met 12 entries on
	// average on clrp_reuse_16x16, 14 on clrp_churn_16x16 and 34 on
	// hybrid_32x32), and 82-87 % of pushes are first visits, so visited
	// answers "has this node an entry?" with one load and only a revisit
	// scans histNodes for the index (once per frame push; a step reads the
	// mask through its frame). visited has bit n set exactly while histNodes
	// holds node n; it is derived (decoding rebuilds it from histNodes) and
	// costs Nodes()/8 bytes per probe object, 32 B at 16x16 and 2 KiB at
	// 128x128, against the 64 KiB of the dense []uint32 store the sparse
	// arrays replaced. Every array stays with the pooled probe, so the store
	// allocates only while the visit list grows.
	histNodes []topology.Node
	histMasks []uint32
	visited   []uint64

	launched int64
}

// ack travels back from the destination along the reserved path, flipping
// each channel to Established (setting the Ack Returned bit). Acks (like
// teardowns and releases) are plain values in the engine's work lists: one
// hop of travel copies a few words instead of chasing a heap object.
type ack struct {
	circ  *Circuit
	pos   int // index into circ.Path of the next channel to acknowledge (from the tail)
	probe *probe
}

// teardown travels forward from the source, freeing channels behind it.
type teardown struct {
	circ *Circuit
	next int // index into circ.Path
}

// release travels backward from the requesting node toward the circuit's
// source, following the Reverse Channel Mappings.
type release struct {
	circID circuit.ID
	at     Channel // channel whose reverse mapping is followed next
}

// Engine is the PCS routing control unit for the whole network.
type Engine struct {
	topo topology.Topology
	// tab is topo's link table: every per-hop question (where does this link
	// lead, which slot runs back, what are the coordinates here) is a load
	// from it. On cubes (tab.Dims > 0) a frame ranks profitable ports by
	// coordinate offset; other families fall back to a Distance-based scan.
	tab  *topology.LinkTable
	prm  Params
	host Host

	// Figure 3 registers, dense per wave channel (index = link*k + switch).
	// Every status write goes through setStatus.
	status []Status
	owner  []int64 // probe ID (while Reserved) or circuit ID (while Established)
	ackRet []bool

	// free is the Channel Status register read a router at a time: bit p of
	// free[node*k+sw] is set while output port p's wave channel on switch sw
	// exists and is Free. It is derived from status (setStatus keeps the two
	// equal, rebuildFree recomputes it), so it is not part of a snapshot.
	free []uint32
	// slot0[n] is node n's first link slot (SlotBase): a link's port is its
	// slot minus slot0 of its source.
	slot0 []int32

	// Direct/Reverse Channel Mappings: input channel key -> output channel
	// key and inverse, dense per wave channel, each stored as key+1 so that
	// the zero value, like every Figure 3 register's here, is the reset
	// state (no entry) and New writes none of them. Source and destination
	// hops have no entry.
	directMap1  []int32
	reverseMap1 []int32

	// req is requestedChannels' reusable result buffer.
	req []outOption
	// wantCh/wantSw are the argument of the wanted predicate handed to
	// Host.RequestLocalRelease; wantedFn is that method bound once, so a
	// Force-phase victim search allocates no closure.
	wantCh   []outOption
	wantSw   int
	wantedFn func(Channel) bool

	probes    []*probe
	acks      []ack
	teardowns []teardown
	releases  []release

	// Spill buffers for the snapshot-and-reset pattern of the step functions:
	// each step swaps its work list with the matching spill so callbacks may
	// append mid-iteration, then splices survivors and spilled entries back —
	// two arrays alternating forever instead of a fresh slice per cycle.
	probeSpill []*probe
	ackSpill   []ack
	tdSpill    []teardown
	relSpill   []release

	// Free-lists for probe and circuit objects (plain slices, never
	// sync.Pool, so reuse order is canonical and runs repeat bit for bit).
	probePool []*probe
	circPool  []*Circuit

	circuits map[circuit.ID]*Circuit

	nextProbe   flit.ProbeID
	nextCircuit circuit.ID

	Ctr Counters

	// now is the cycle last passed to Cycle: a launch stamps it and a
	// completion reports its latency from it.
	now int64
	// moved records that a probe or control flit moved during the current
	// Cycle, which returns it.
	moved bool

	// Registered completion handlers, the only way a completion is reported:
	// every probe reports through onDone, every teardown through onFreed.
	// Pending work then holds no code, only data, so it always snapshots.
	onDone  func(src, dst topology.Node, sw int, force bool, tag int64, res SetupResult)
	onFreed func(src, dst topology.Node, id circuit.ID)
}

// New constructs the engine.
func New(topo topology.Topology, prm Params, host Host) (*Engine, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if host == nil {
		return nil, fmt.Errorf("pcs: nil host")
	}
	if topo.MaxOutDegree() > 32 {
		// The History Store packs searched-output masks into uint32 words,
		// one bit per port (Figure 3). A 33-port router would overflow the
		// word; full meshes are therefore capped at 33 nodes.
		return nil, fmt.Errorf("pcs: %s has out-degree %d, exceeding the 32-port History Store word", topo.Name(), topo.MaxOutDegree())
	}
	n := topo.NumLinkSlots() * prm.NumSwitches
	e := &Engine{
		topo:        topo,
		tab:         topo.Links(),
		prm:         prm,
		host:        host,
		status:      make([]Status, n),
		owner:       make([]int64, n),
		ackRet:      make([]bool, n),
		directMap1:  make([]int32, n),
		reverseMap1: make([]int32, n),
		free:        make([]uint32, topo.Nodes()*prm.NumSwitches),
		slot0:       make([]int32, topo.Nodes()),
		circuits:    make(map[circuit.ID]*Circuit),
	}
	e.wantedFn = e.wanted
	for i := range e.slot0 {
		e.slot0[i] = int32(topo.SlotBase(topology.Node(i)))
	}
	e.rebuildFree()
	return e, nil
}

// setStatus writes the Channel Status register of the wave channel on link
// and switch sw, and the matching bit of its router's free word.
func (e *Engine) setStatus(link int32, sw int, s Status) {
	k := e.prm.NumSwitches
	e.status[int(link)*k+sw] = s
	from := e.tab.From[link]
	if from < 0 {
		return // a phantom slot has no port to offer
	}
	w := &e.free[int(from)*k+sw]
	if bit := uint32(1) << uint(link-e.slot0[from]); s == Free {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// rebuildFree recomputes every free word from status.
func (e *Engine) rebuildFree() { e.freeWords(e.free) }

// freeWords writes into free, one word per (node, switch), the free word
// the status registers give.
func (e *Engine) freeWords(free []uint32) {
	clear(free)
	k := e.prm.NumSwitches
	for link, from := range e.tab.From {
		if from < 0 {
			continue
		}
		bit := uint32(1) << uint(int32(link)-e.slot0[from])
		for sw := 0; sw < k; sw++ {
			if e.status[link*k+sw] == Free {
				free[int(from)*k+sw] |= bit
			}
		}
	}
}

// direct returns the Direct Channel Mapping of channel key k, -1 for none.
func (e *Engine) direct(k int32) int32 { return e.directMap1[k] - 1 }

// reverse returns the Reverse Channel Mapping of channel key k, -1 for none.
func (e *Engine) reverse(k int32) int32 { return e.reverseMap1[k] - 1 }

// key converts a Channel to its dense index.
func (e *Engine) key(c Channel) int32 { return int32(int(c.Link)*e.prm.NumSwitches + c.Switch) }

// chanOf inverts key.
func (e *Engine) chanOf(k int32) Channel {
	return Channel{Link: topology.LinkID(int(k) / e.prm.NumSwitches), Switch: int(k) % e.prm.NumSwitches}
}

// ChannelStatus exposes the Figure 3 Channel Status register.
func (e *Engine) ChannelStatus(c Channel) Status { return e.status[e.key(c)] }

// AckReturned exposes the Figure 3 Ack Returned bit.
func (e *Engine) AckReturned(c Channel) bool { return e.ackRet[e.key(c)] }

// DirectMapping exposes the Figure 3 Direct Channel Mappings register: the
// output channel that input channel `in` maps to at its sink router.
func (e *Engine) DirectMapping(in Channel) (Channel, bool) {
	k := e.direct(e.key(in))
	if k < 0 {
		return Channel{}, false
	}
	return e.chanOf(k), true
}

// ReverseMapping exposes the Figure 3 Reverse Channel Mappings register.
func (e *Engine) ReverseMapping(out Channel) (Channel, bool) {
	k := e.reverse(e.key(out))
	if k < 0 {
		return Channel{}, false
	}
	return e.chanOf(k), true
}

// History exposes the Figure 3 History Store: the mask of outputs already
// searched by probe p at node n (bit = output port index, which on cubes is
// dim*2+dir). The store is distributed across the in-flight probes; a
// finished probe's entries are gone.
func (e *Engine) History(n topology.Node, p flit.ProbeID) uint32 {
	for _, pr := range e.probes {
		if pr.id == p {
			return pr.histAt(n)
		}
	}
	return 0
}

// WireFields renders an in-flight probe in its Figure 4 on-the-wire form:
// Header and Force bits, the current misroute count, and the per-dimension
// offsets from the destination as seen at the probe's current router. The
// Backtrack bit reports false — in this engine a backtrack hop completes
// within the cycle it is decided, so probes are only ever observable between
// forward states. ok is false when no such probe is active.
func (e *Engine) WireFields(id flit.ProbeID) (flit.ProbeFields, bool) {
	for _, p := range e.probes {
		if p.id != id {
			continue
		}
		var offs []int // nil on families without coordinates
		for d := 0; d < e.tab.Dims; d++ {
			offs = append(offs, e.tab.Offset(p.at, p.dst, d))
		}
		return flit.ProbeFields{
			Header:   true,
			Force:    p.force,
			Misroute: uint8(p.misroutes),
			Offsets:  offs,
		}, true
	}
	return flit.ProbeFields{}, false
}

// CircuitByID returns the registry entry.
func (e *Engine) CircuitByID(id circuit.ID) (*Circuit, bool) {
	c, ok := e.circuits[id]
	return c, ok
}

// NumCircuits returns the count of circuits that are set up or being set up.
func (e *Engine) NumCircuits() int { return len(e.circuits) }

// ActiveProbes returns the number of probes in flight.
func (e *Engine) ActiveProbes() int { return len(e.probes) }

// ProbeSearch describes one searching probe: its path depth and how many
// outputs its History Store has marked. Every forward hop marks an output
// not marked before and a backtrack unmarks nothing, so Marked - Depth is
// the number of backtracks the probe has made.
type ProbeSearch struct {
	ID     flit.ProbeID
	Depth  int
	Marked int
}

// Searches appends the state of every searching probe to dst, in step
// order.
func (e *Engine) Searches(dst []ProbeSearch) []ProbeSearch {
	for _, p := range e.probes {
		marked := 0
		for _, m := range p.histMasks {
			marked += bits.OnesCount32(m)
		}
		dst = append(dst, ProbeSearch{ID: p.id, Depth: len(p.path), Marked: marked})
	}
	return dst
}

// InjectFault marks a wave channel faulty; established circuits through it
// are unaffected (static faults present before circuit setup, as in the E8
// experiments).
func (e *Engine) InjectFault(c Channel) {
	if e.status[e.key(c)] == Free {
		e.setStatus(int32(c.Link), c.Switch, Faulty)
	}
}

// InjectDynamicFault marks wave channel c faulty mid-run, whatever its
// current state — the dynamic-fault model (failures during operation), as
// opposed to InjectFault's static pre-run faults:
//
//   - Free: the channel simply becomes unselectable.
//   - Reserved: the owning probe — or, if the probe already reached its
//     destination, the in-flight acknowledgment and its registered circuit —
//     is killed: every channel the setup holds is released, the history
//     store cleared, and the SetProbeDone handler reports OK=false so the
//     sender can retry or fall back to wormhole.
//   - Established mid-ack: same wholesale kill; a stale ack must never flip
//     a faulty channel back to Established.
//   - Established: the circuit's source NI is notified exactly as if a
//     release flit had arrived (hardware fault detection signalling the
//     source); the cache entry is invalidated and the circuit torn down once
//     idle. The teardown flit skips the faulty hop (ownership guard in
//     stepTeardowns) instead of resurrecting it.
//
// The wormhole substrate and the control network are assumed healthy: only
// wave data channels fail. Callers must invoke this between cycles (the
// fabric's event phase), never from inside the engine's own stepping.
func (e *Engine) InjectDynamicFault(c Channel) {
	k := e.key(c)
	switch e.status[k] {
	case Faulty:
		return // already down
	case Free:
		e.setStatus(int32(c.Link), c.Switch, Faulty)
	case Reserved:
		// While Reserved the owner register holds a probe ID — both during
		// the search and, after circuit registration, until the returning
		// ack flips the channel to Established.
		id := flit.ProbeID(e.owner[k])
		e.faultChannel(c)
		if !e.killProbeByID(id) {
			e.killAckByProbe(id)
		}
	case Established:
		id := circuit.ID(e.owner[k])
		e.faultChannel(c)
		circ, ok := e.circuits[id]
		if !ok {
			break
		}
		if circ.ackPending {
			e.killAck(circ)
			break
		}
		if !circ.tearingDown {
			e.Ctr.FaultCircuitsTorn++
		}
		e.host.RequestRemoteRelease(id)
	}
	e.Ctr.FaultsInjected++
}

// RepairFault returns a faulty channel to service (the transient-fault
// model: a fault with a repair time). Only the Faulty→Free transition is
// honoured; a channel that was never faulted is left alone.
func (e *Engine) RepairFault(c Channel) {
	k := e.key(c)
	if e.status[k] != Faulty {
		return
	}
	e.setStatus(int32(c.Link), c.Switch, Free)
	e.owner[k] = 0
	e.ackRet[k] = false
	e.Ctr.FaultRepairs++
}

// faultChannel wipes channel c's registers and marks it Faulty.
func (e *Engine) faultChannel(c Channel) {
	k := e.key(c)
	e.setStatus(int32(c.Link), c.Switch, Faulty)
	e.owner[k] = 0
	e.ackRet[k] = false
	e.directMap1[k] = 0
	e.reverseMap1[k] = 0
}

// freeHopOwned releases one path hop of a killed setup, but only while the
// hop still belongs to that setup: the faulted hop itself is already Faulty,
// and the guard keeps a kill from clobbering channels that changed hands.
func (e *Engine) freeHopOwned(c Channel, probeOwner, circOwner int64) {
	k := e.key(c)
	switch {
	case e.status[k] == Reserved && e.owner[k] == probeOwner:
	case e.status[k] == Established && e.owner[k] == circOwner:
	default:
		return
	}
	e.setStatus(int32(c.Link), c.Switch, Free)
	e.owner[k] = 0
	e.ackRet[k] = false
	e.directMap1[k] = 0
	e.reverseMap1[k] = 0
}

// killProbeByID removes an in-flight probe hit by a dynamic fault: its
// reserved hops are freed (ownership-guarded), its history store cleared,
// and its completion reports OK=false — the same observable outcome as
// a backtrack all the way home, just immediate. Returns false when no such
// probe is searching (it may have handed off to an ack already).
func (e *Engine) killProbeByID(id flit.ProbeID) bool {
	for i, p := range e.probes {
		if p.id != id {
			continue
		}
		e.probes = append(e.probes[:i], e.probes[i+1:]...)
		for j := len(p.path) - 1; j >= 0; j-- {
			e.freeHopOwned(p.path[j].channel(p.sw), int64(p.id), 0)
		}
		e.cleanupHistory(p)
		e.Ctr.ProbesFailed++
		e.Ctr.FaultProbesKilled++
		e.fireDone(p, SetupResult{Probe: p.id, OK: false, Cycles: e.now - p.launched + 1})
		e.putProbe(p)
		return true
	}
	return false
}

// killAckByProbe finds the in-flight acknowledgment carried for probe id and
// kills its whole setup.
func (e *Engine) killAckByProbe(id flit.ProbeID) {
	for _, a := range e.acks {
		if a.probe.id == id {
			e.killAck(a.circ)
			return
		}
	}
}

// killAck destroys a registered-but-ack-pending circuit hit by a dynamic
// fault: the ack is removed from flight, every path hop still owned by the
// setup is freed (the acked prefix is Established under the circuit ID, the
// rest Reserved under the probe ID), and the probe fails back to its sender.
func (e *Engine) killAck(circ *Circuit) {
	idx := -1
	for i := range e.acks {
		if e.acks[i].circ == circ {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	p := e.acks[idx].probe
	e.acks = append(e.acks[:idx], e.acks[idx+1:]...)
	for j := len(circ.Path) - 1; j >= 0; j-- {
		e.freeHopOwned(circ.Path[j], int64(p.id), int64(circ.ID))
	}
	delete(e.circuits, circ.ID)
	e.cleanupHistory(p)
	e.Ctr.ProbesFailed++
	e.Ctr.FaultProbesKilled++
	e.Ctr.FaultCircuitsTorn++
	e.fireDone(p, SetupResult{Probe: p.id, OK: false, Cycles: e.now - p.launched + 1})
	e.putProbe(p)
	e.putCircuit(circ)
}

// SetProbeDone registers the engine-wide probe completion handler. The
// handler receives the probe's identity fields and caller tag, so the probe's
// wire state plus the tag fully describe a pending completion.
func (e *Engine) SetProbeDone(fn func(src, dst topology.Node, sw int, force bool, tag int64, res SetupResult)) {
	e.onDone = fn
}

// SetCircuitFreed registers the engine-wide teardown completion handler.
func (e *Engine) SetCircuitFreed(fn func(src, dst topology.Node, id circuit.ID)) {
	e.onFreed = fn
}

// LaunchProbeTagged starts one circuit-setup attempt from src to dst across
// wave switch sw (0-based). The SetProbeDone handler fires exactly once with
// the outcome, carrying tag.
func (e *Engine) LaunchProbeTagged(src, dst topology.Node, sw int, force bool, tag int64) flit.ProbeID {
	if src == dst {
		panic("pcs: probe to self")
	}
	if sw < 0 || sw >= e.prm.NumSwitches {
		panic(fmt.Sprintf("pcs: switch %d out of range", sw))
	}
	e.nextProbe++
	p := e.getProbe()
	p.id = e.nextProbe
	p.src = src
	p.dst = dst
	p.sw = sw
	p.force = force
	p.maxMis = e.prm.MaxMisroutes
	p.at = src
	p.launched = e.now
	p.tag = tag
	e.probes = append(e.probes, p)
	e.Ctr.ProbesLaunched++
	return p.id
}

// fireDone reports a probe's outcome through the registered handler.
func (e *Engine) fireDone(p *probe, res SetupResult) {
	if e.onDone != nil {
		e.onDone(p.src, p.dst, p.sw, p.force, p.tag, res)
	}
}

// getProbe takes a probe object from the free-list (or allocates the pool's
// first tenant). Recycled probes keep their grown path/frame/history arrays;
// every transient field is reset here.
func (e *Engine) getProbe() *probe {
	var p *probe
	if n := len(e.probePool); n > 0 {
		p = e.probePool[n-1]
		e.probePool[n-1] = nil
		e.probePool = e.probePool[:n-1]
	} else {
		p = e.newProbe()
	}
	p.misroutes = 0
	p.path = p.path[:0]
	p.frames = p.frames[:0]
	p.phase = probeAdvancing
	p.requestedRelease = false
	p.waitingFor = Channel{}
	p.waitingOwner = 0
	p.tag = 0
	return p
}

// newProbe allocates a probe object with an empty History Store.
func (e *Engine) newProbe() *probe {
	return &probe{visited: make([]uint64, (e.topo.Nodes()+63)/64)}
}

// putProbe recycles a finished probe. Callers must have run cleanupHistory
// and reported the outcome already.
func (e *Engine) putProbe(p *probe) {
	e.probePool = append(e.probePool, p)
}

// getCircuit takes a circuit object from the free-list, keeping its grown
// Path array.
func (e *Engine) getCircuit() *Circuit {
	var c *Circuit
	if n := len(e.circPool); n > 0 {
		c = e.circPool[n-1]
		e.circPool[n-1] = nil
		e.circPool = e.circPool[:n-1]
	} else {
		c = &Circuit{}
	}
	c.Path = c.Path[:0]
	c.releasePending = false
	c.tearingDown = false
	c.ackPending = false
	c.teardownDeferred = false
	return c
}

// putCircuit recycles a fully torn-down circuit (already deleted from the
// registry, so no CircuitByID caller can observe the reuse).
func (e *Engine) putCircuit(c *Circuit) {
	e.circPool = append(e.circPool, c)
}

// TeardownNotify starts releasing circuit id from its source. The
// SetCircuitFreed handler fires when the teardown flit has freed the last
// channel. It panics if the circuit does not exist; callers own the in-use
// discipline.
func (e *Engine) TeardownNotify(id circuit.ID) {
	c, ok := e.circuits[id]
	if !ok {
		panic(fmt.Sprintf("pcs: teardown of unknown circuit %d", id))
	}
	if c.tearingDown || c.teardownDeferred {
		return // already in progress or queued
	}
	if c.ackPending {
		// The setup acknowledgment is still in flight; starting the teardown
		// now would cross it. Defer until the ack lands.
		c.teardownDeferred = true
		return
	}
	c.tearingDown = true
	e.teardowns = append(e.teardowns, teardown{circ: c})
	e.Ctr.Teardowns++
}

// Teardown is the former name of TeardownNotify.
//
// Deprecated: use TeardownNotify. A completion is reported only through the
// SetCircuitFreed handler, so Teardown panics on a non-nil closure and
// otherwise behaves as TeardownNotify.
func (e *Engine) Teardown(id circuit.ID, closure func()) {
	if closure != nil {
		panic("pcs: Teardown takes no completion closure; register SetCircuitFreed and call TeardownNotify")
	}
	e.TeardownNotify(id)
}

// Cycle advances every control flit and probe by one hop of work. It
// reports whether any of them moved: a hop forward or back, or a probe
// reaching its destination.
func (e *Engine) Cycle(now int64) bool {
	e.now = now
	e.moved = false
	e.stepTeardowns()
	e.stepReleases()
	e.stepAcks()
	e.stepProbes()
	return e.moved
}

// Idle reports whether the engine holds no in-flight work at all: no probes
// searching, no acks, teardowns or release flits travelling. An idle engine's
// Cycle only advances its clock (every step function returns immediately).
func (e *Engine) Idle() bool {
	return len(e.probes) == 0 && len(e.acks) == 0 &&
		len(e.teardowns) == 0 && len(e.releases) == 0
}

// ---------------------------------------------------------------------------
// Teardown flits.

func (e *Engine) stepTeardowns() {
	if len(e.teardowns) == 0 {
		return
	}
	// Snapshot-and-reset: the CircuitFreed handler may start new teardowns
	// (e.g. evicting another victim); those must not be lost to in-place
	// compaction, nor run this same cycle. The swap with the spill buffer
	// keeps both backing arrays alive across cycles, so the steady state
	// allocates nothing.
	work := e.teardowns
	e.teardowns = e.tdSpill[:0]
	n := 0
	for _, td := range work {
		ch := td.circ.Path[td.next]
		k := e.key(ch)
		// Free this hop — status, ack bit, and both mapping registers — but
		// only while it still belongs to this circuit: a hop lost to a
		// dynamic fault (Faulty, or repaired and since re-reserved) must not
		// be resurrected. The control flit itself travels on the healthy
		// control network regardless.
		if e.status[k] == Established && circuit.ID(e.owner[k]) == td.circ.ID {
			e.setStatus(int32(ch.Link), ch.Switch, Free)
			e.ackRet[k] = false
			e.owner[k] = 0
			e.reverseMap1[k] = 0
			e.directMap1[k] = 0
		}
		e.Ctr.ControlHops++
		e.moved = true
		td.next++
		if td.next >= len(td.circ.Path) {
			delete(e.circuits, td.circ.ID)
			if e.onFreed != nil {
				e.onFreed(td.circ.Src, td.circ.Dst, td.circ.ID)
			}
			e.putCircuit(td.circ)
			continue
		}
		work[n] = td
		n++
	}
	spill := e.teardowns
	for i := n; i < len(work); i++ {
		work[i] = teardown{}
	}
	e.teardowns = append(work[:n], spill...)
	e.tdSpill = spill[:0]
}

// ---------------------------------------------------------------------------
// Release request flits.

// sendRelease creates a release flit for the circuit owning channel ch,
// applying the dedup rule: only the first request per circuit travels.
func (e *Engine) sendRelease(ch Channel) {
	k := e.key(ch)
	if e.status[k] != Established {
		e.Ctr.ReleasesDiscarded++
		return
	}
	id := circuit.ID(e.owner[k])
	c, ok := e.circuits[id]
	if !ok || c.tearingDown || c.releasePending {
		e.Ctr.ReleasesDiscarded++
		return
	}
	c.releasePending = true
	e.releases = append(e.releases, release{circID: id, at: ch})
	e.Ctr.ReleasesSent++
}

func (e *Engine) stepReleases() {
	if len(e.releases) == 0 {
		return
	}
	work := e.releases
	e.releases = e.relSpill[:0]
	n := 0
	for _, r := range work {
		k := e.key(r.at)
		// Stale? The circuit may have been torn down while we travelled
		// ("the control flit is discarded at some intermediate node").
		if e.status[k] != Established || circuit.ID(e.owner[k]) != r.circID {
			e.Ctr.ReleasesDiscarded++
			continue
		}
		prev := e.reverse(k)
		e.Ctr.ControlHops++
		e.moved = true
		if prev < 0 {
			// r.at is the circuit's first channel: we are at the source.
			e.host.RequestRemoteRelease(r.circID)
			continue
		}
		r.at = e.chanOf(prev)
		work[n] = r
		n++
	}
	spill := e.releases
	e.releases = append(work[:n], spill...)
	e.relSpill = spill[:0]
}

// ---------------------------------------------------------------------------
// Acknowledgment flits.

func (e *Engine) stepAcks() {
	if len(e.acks) == 0 {
		return
	}
	work := e.acks
	e.acks = e.ackSpill[:0]
	n := 0
	for _, a := range work {
		ch := a.circ.Path[a.pos]
		k := e.key(ch)
		e.setStatus(int32(ch.Link), ch.Switch, Established)
		e.owner[k] = int64(a.circ.ID)
		e.ackRet[k] = true
		e.Ctr.ControlHops++
		e.moved = true
		a.pos--
		if a.pos < 0 {
			// Reached the source: setup complete.
			p := a.probe
			a.circ.ackPending = false
			e.cleanupHistory(p)
			e.Ctr.ProbesSucceeded++
			e.fireDone(p, SetupResult{
				Probe:   p.id,
				OK:      true,
				Circuit: a.circ.ID,
				First:   a.circ.Path[0],
				PathLen: len(a.circ.Path),
				Cycles:  e.now - p.launched + 1,
			})
			if a.circ.teardownDeferred {
				a.circ.teardownDeferred = false
				e.TeardownNotify(a.circ.ID)
			}
			e.putProbe(p)
			continue
		}
		work[n] = a
		n++
	}
	spill := e.acks
	for i := n; i < len(work); i++ {
		work[i] = ack{}
	}
	e.acks = append(work[:n], spill...)
	e.ackSpill = spill[:0]
}

// ---------------------------------------------------------------------------
// Probes.

func (e *Engine) stepProbes() {
	if len(e.probes) == 0 {
		return
	}
	// Snapshot-and-reset: a failure handler typically launches the next
	// attempt (next wave switch) immediately; the fresh probe must survive
	// this compaction and start on the next cycle.
	work := e.probes
	e.probes = e.probeSpill[:0]
	n := 0
	for _, p := range work {
		if e.stepProbe(p) {
			work[n] = p
			n++
		}
	}
	spill := e.probes
	for i := n; i < len(work); i++ {
		work[i] = nil // finished probes are pool-owned now
	}
	e.probes = append(work[:n], spill...)
	e.probeSpill = spill[:0]
}

// stepProbe advances one probe by one cycle; it returns false when the probe
// finished (success handoff to ack, or failure).
func (e *Engine) stepProbe(p *probe) bool {
	if p.at == p.dst {
		// Reserved all the way: register the circuit and launch the ack.
		e.nextCircuit++
		c := e.getCircuit()
		c.ID = e.nextCircuit
		c.Src = p.src
		c.Dst = p.dst
		c.Switch = p.sw
		for _, h := range p.path {
			c.Path = append(c.Path, h.channel(p.sw))
		}
		c.ackPending = true
		e.circuits[c.ID] = c
		e.acks = append(e.acks, ack{circ: c, pos: len(c.Path) - 1, probe: p})
		e.moved = true
		return false
	}

	f := e.curFrame(p)
	switch p.phase {
	case probeAdvancing:
		return e.probeAdvance(p, f)
	case probeWaiting:
		return e.probeWait(p, f)
	default:
		panic("pcs: unknown probe phase")
	}
}

// curFrame returns p's frame at its current depth. A frame is built once,
// when the probe first reaches the depth; a backtrack returns to the
// parent's frame and a Force probe waiting in place re-reads its own. A
// fresh or restored probe has no frames yet, so the loop builds every
// missing depth from the path.
func (e *Engine) curFrame(p *probe) *frame {
	for d := len(p.frames); d <= len(p.path); d++ {
		at, back := p.src, int32(-1)
		if d > 0 {
			l := p.path[d-1].link
			at, back = topology.Node(e.tab.To[l]), e.tab.Reverse[l]
		}
		e.pushFrame(p, at, back)
	}
	return &p.frames[len(p.path)]
}

// pushFrame pushes the frame of node at, reached through the slot back
// leads back along (-1 at the source): the node's slots and Channel Status
// word, the back port, the profitable mask and its top port, and the node's
// History Store entry and mask.
func (e *Engine) pushFrame(p *probe, at topology.Node, back int32) {
	hist, hmask := int32(-1), uint32(0)
	if p.visits(at) {
		for i, n := range p.histNodes {
			if n == at {
				hist, hmask = int32(i), p.histMasks[i]
				break
			}
		}
	}
	first := e.slot0[at]
	var backBit uint32
	if back >= 0 {
		backBit = 1 << uint(back-first)
	}
	prof, top := e.profitable(at, p.dst, first, backBit)
	// Written in place: a frame built on the stack field by field and then
	// copied stalls on store forwarding.
	p.frames = append(p.frames, frame{})
	f := &p.frames[len(p.frames)-1]
	f.hist, f.first, f.cs, f.top, f.back, f.prof, f.hmask = hist, first, int32(int(at)*e.prm.NumSwitches+p.sw), top, backBit, prof, hmask
}

// profitable returns the profitable ports of node at (first link slot
// first) towards dst and the top one, -1 when there is none. The probe's
// order puts profitable outputs first: on cubes the largest remaining
// offset first, ties in dimension order; elsewhere in port order. A cube's
// profitable port along a dimension is the one the offset's sign names;
// elsewhere a port is profitable when it strictly reduces Distance. The
// back port and phantom slots are never profitable.
func (e *Engine) profitable(at, dst topology.Node, first int32, back uint32) (prof uint32, top int32) {
	t := e.tab
	top = -1
	if dims := t.Dims; dims > 0 {
		to := t.To[first : first+int32(2*dims)]
		best := 0
		for dim := 0; dim < dims; dim++ {
			// Branch-free sign split: a probe's offsets are as good as
			// random, so a branch on them mispredicts half the time.
			off := t.Offset(at, dst, dim)
			neg := off >> 63 // -1 when the offset runs Minus
			mag, port := (off^neg)-neg, 2*dim-neg
			bit := uint32(1) << uint(port) & uint32(-mag>>63) // 0 when off == 0
			if bit == 0 || bit == back || to[port] < 0 {
				continue
			}
			prof |= bit
			if mag > best {
				best, top = mag, int32(port)
			}
		}
		return prof, top
	}
	atDist := e.topo.Distance(at, dst)
	for port, deg := 0, e.topo.OutDegree(at); port < deg; port++ {
		bit, to := uint32(1)<<uint(port), t.To[first+int32(port)]
		if to < 0 || bit == back || e.topo.Distance(topology.Node(to), dst) >= atDist {
			continue
		}
		prof |= bit
		if top < 0 {
			top = int32(port)
		}
	}
	return prof, top
}

// firstProfitable returns the port of profitable mask c that comes first in
// the probe's order (see profitable).
func (e *Engine) firstProfitable(c uint32, at, dst topology.Node) int {
	if e.tab.Dims == 0 {
		return bits.TrailingZeros32(c)
	}
	best, bestMag := -1, 0
	for ; c != 0; c &= c - 1 {
		port := bits.TrailingZeros32(c)
		mag := e.tab.Offset(at, dst, port>>1)
		if mag < 0 {
			mag = -mag
		}
		if mag > bestMag {
			best, bestMag = port, mag
		}
	}
	return best
}

// pick is the MB-m first choice at p's current router: the first free,
// unsearched output in the probe's order (profitable outputs before
// misroutes, the back port never), a misroute only within the budget. It
// returns the port, or -1 when there is none.
func (e *Engine) pick(p *probe, f *frame) int {
	cand := e.free[f.cs] &^ f.hmask &^ f.back
	if c := cand & f.prof; c != 0 {
		if c&(1<<uint(f.top)) != 0 {
			return int(f.top)
		}
		return e.firstProfitable(c, p.at, p.dst)
	}
	if cand != 0 && p.misroutes < p.maxMis {
		return bits.TrailingZeros32(cand)
	}
	return -1
}

// outOption is one requested output of a blocked Force probe: the link
// slot, its dense channel key on the probe's switch, the History Store bit
// of its port, and whether it is profitable.
type outOption struct {
	link       int32
	key        int32
	bit        uint32
	profitable bool
}

// channel returns the wave channel o denotes on switch sw.
func (o outOption) channel(sw int) Channel {
	return Channel{Link: topology.LinkID(o.link), Switch: sw}
}

// takeChannel reserves output port of p's current frame f and moves the
// probe across it.
func (e *Engine) takeChannel(p *probe, f *frame, port int) {
	link, bit := f.first+int32(port), uint32(1)<<uint(port)
	k := link*int32(e.prm.NumSwitches) + int32(p.sw)
	profitable := f.prof&bit != 0
	e.setStatus(link, p.sw, Reserved)
	e.owner[k] = int64(p.id)
	// Record the mapping registers at the current node: the previous hop's
	// channel maps to this one.
	if n := len(p.path); n > 0 {
		in := p.path[n-1].key
		e.directMap1[in] = k + 1
		e.reverseMap1[k] = in + 1
	}
	e.markHistory(p, f, bit)
	p.path = append(p.path, pathHop{link: link, key: k, misroute: !profitable})
	if !profitable {
		p.misroutes++
		e.Ctr.Misroutes++
	}
	p.at = topology.Node(e.tab.To[link])
	if p.at != p.dst && len(p.frames) == len(p.path) {
		// Build the next depth's frame now, while the link is at hand.
		e.pushFrame(p, p.at, e.tab.Reverse[link])
	}
	p.phase = probeAdvancing
	p.requestedRelease = false
	e.Ctr.ControlHops++
	e.moved = true
}

// markHistory records in the History Store that p searched output bit at
// its current node (frame f), creating the node's entry on its first mark,
// and writes the bit through to the frame's copy of the mask.
func (e *Engine) markHistory(p *probe, f *frame, bit uint32) {
	if f.hist < 0 {
		f.hist = int32(len(p.histNodes))
		p.histNodes = append(p.histNodes, p.at)
		p.histMasks = append(p.histMasks, 0)
		p.visited[p.at>>6] |= 1 << (p.at & 63)
	}
	p.histMasks[f.hist] |= bit
	f.hmask |= bit
}

// cleanupHistory clears the probe's History Store in O(nodes visited): it
// zeroes the visited words of the nodes it holds and truncates the sparse
// arrays, which stay with the pooled probe.
func (e *Engine) cleanupHistory(p *probe) {
	for _, n := range p.histNodes {
		p.visited[n>>6] = 0
	}
	p.histNodes = p.histNodes[:0]
	p.histMasks = p.histMasks[:0]
}

// visits reports whether p's History Store has an entry for node n.
func (p *probe) visits(n topology.Node) bool {
	return p.visited[n>>6]&(1<<(n&63)) != 0
}

// histAt reads the probe's History Store mask for node n (0 if unvisited).
func (p *probe) histAt(n topology.Node) uint32 {
	for i, hn := range p.histNodes {
		if hn == n {
			return p.histMasks[i]
		}
	}
	return 0
}

// probeAdvance implements one MB-m step: take a free valid channel if any,
// otherwise misroute within budget, otherwise Force-wait or backtrack.
func (e *Engine) probeAdvance(p *probe, f *frame) bool {
	if port := e.pick(p, f); port >= 0 {
		e.takeChannel(p, f, port)
		return true
	}
	if p.force {
		// CLRP phase two: the probe does not backtrack while any requested
		// channel belongs to an *established* circuit; it waits for (and
		// requests) its release. Only when every requested channel belongs to
		// circuits still being established does it backtrack.
		if e.forceSelectVictim(p, f) {
			p.phase = probeWaiting
			e.Ctr.ForceWaits++
			return true
		}
	}
	return e.probeBacktrack(p)
}

// requestedChannels lists the outputs of p's current frame that the Force
// logic considers "requested" — existing, unsearched, within misroute
// budget, not faulty — in the probe's order. The result aliases the
// engine's req buffer.
func (e *Engine) requestedChannels(p *probe, f *frame) []outOption {
	req := e.req[:0]
	open := ^f.hmask &^ f.back
	for c := f.prof & open; c != 0; {
		port := e.firstProfitable(c, p.at, p.dst)
		c &^= 1 << uint(port)
		req = e.appendRequested(req, p, f, port)
	}
	if p.misroutes < p.maxMis {
		deg := 2 * e.tab.Dims
		if deg == 0 {
			deg = e.topo.OutDegree(p.at)
		}
		for c := open &^ f.prof & (1<<uint(deg) - 1); c != 0; c &= c - 1 {
			req = e.appendRequested(req, p, f, bits.TrailingZeros32(c))
		}
	}
	e.req = req[:0]
	return req
}

// appendRequested appends port of frame f to req unless its channel is
// missing (a phantom slot) or Faulty.
func (e *Engine) appendRequested(req []outOption, p *probe, f *frame, port int) []outOption {
	link := f.first + int32(port)
	k := link*int32(e.prm.NumSwitches) + int32(p.sw)
	if e.tab.To[link] < 0 || e.status[k] == Faulty {
		return req
	}
	return append(req, outOption{link: link, key: k, bit: 1 << uint(port), profitable: f.prof&(1<<uint(port)) != 0})
}

// forceSelectVictim picks a victim circuit for a blocked Force probe. It
// returns true when the probe should wait (a release is underway), false when
// it must backtrack (all requested channels belong to circuits being
// established, or nothing is requestable).
func (e *Engine) forceSelectVictim(p *probe, f *frame) bool {
	req := e.requestedChannels(p, f)
	if len(req) == 0 {
		return false
	}
	anyEstablished := false
	for _, o := range req {
		if e.status[o.key] == Established {
			anyEstablished = true
			break
		}
	}
	if !anyEstablished {
		// "In the very unlikely case that all the outgoing channels of a node
		// belong to circuits currently being established, the probe
		// backtracks even if the Force bit is set."
		return false
	}
	if p.requestedRelease {
		// A release is already pending; keep waiting. probeWait revalidates.
		return true
	}
	// Preference 1: a circuit starting at the current node (its own cache).
	e.wantCh, e.wantSw = req, p.sw
	if ch, ok := e.host.RequestLocalRelease(p.at, e.wantedFn); ok {
		p.requestedRelease = true
		p.waitingFor = ch
		p.waitingOwner = e.owner[e.key(ch)]
		return true
	}
	// Preference 2: a circuit crossing this node that already returned its
	// acknowledgment — send a release flit toward its source.
	for _, o := range req {
		if e.status[o.key] == Established {
			e.sendRelease(o.channel(p.sw))
			p.requestedRelease = true
			p.waitingFor = o.channel(p.sw)
			p.waitingOwner = e.owner[o.key]
			return true
		}
	}
	return false
}

// wanted is the predicate forceSelectVictim hands the host: does c carry an
// established circuit on one of the requested channels (e.wantCh on switch
// e.wantSw)?
func (e *Engine) wanted(c Channel) bool {
	for _, o := range e.wantCh {
		if e.status[o.key] == Established && o.channel(e.wantSw) == c {
			return true
		}
	}
	return false
}

// probeWait re-evaluates a waiting Force probe each cycle.
func (e *Engine) probeWait(p *probe, f *frame) bool {
	// Grab any requested channel that has come free: the first free one in
	// the requested list is the first choice.
	if port := e.pick(p, f); port >= 0 {
		e.takeChannel(p, f, port)
		return true
	}
	// Still blocked. If our awaited channel was stolen, or its circuit
	// vanished (even if a different circuit now holds the same channel),
	// re-select a victim (or backtrack if only in-setup circuits remain).
	// While it stays Established under the awaited circuit, it is itself a
	// requested Established channel (the host frees only a channel wanted
	// returns true for, and the probe has not moved since), so
	// forceSelectVictim would keep waiting: skip building the list.
	wk := e.key(p.waitingFor)
	if e.status[wk] != Established || e.owner[wk] != p.waitingOwner {
		p.requestedRelease = false
	} else if p.requestedRelease {
		return true
	}
	if e.forceSelectVictim(p, f) {
		return true
	}
	p.phase = probeAdvancing
	return e.probeBacktrack(p)
}

// probeBacktrack undoes the last hop, popping its frame so the parent's
// frame and History Store entry are current again, or fails the attempt at
// the source. The parent frame's History Store mask is refreshed from the
// store (see frame): 0.44-0.54 % of backtracks on the CLRP benchmark
// shapes find it stale.
func (e *Engine) probeBacktrack(p *probe) bool {
	if len(p.path) == 0 {
		// Exhausted the search from the source: the attempt fails.
		e.cleanupHistory(p)
		e.Ctr.ProbesFailed++
		e.fireDone(p, SetupResult{Probe: p.id, OK: false, Cycles: e.now - p.launched + 1})
		e.putProbe(p)
		return false
	}
	d := len(p.path)
	hop := p.path[d-1]
	p.path = p.path[:d-1]
	p.frames = p.frames[:d]
	if f := &p.frames[d-1]; f.hist >= 0 {
		f.hmask = p.histMasks[f.hist]
	}
	k := hop.key
	e.setStatus(hop.link, p.sw, Free)
	e.owner[k] = 0
	if d > 1 {
		e.directMap1[p.path[d-2].key] = 0
	}
	e.reverseMap1[k] = 0
	if hop.misroute {
		p.misroutes--
	}
	p.at = topology.Node(e.tab.From[hop.link])
	p.requestedRelease = false
	e.Ctr.Backtracks++
	e.Ctr.ControlHops++
	e.moved = true
	return true
}
