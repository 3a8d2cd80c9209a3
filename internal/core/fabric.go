// Package core assembles the wave router of Figure 2 into a whole-network
// fabric: switch S0 with its wormhole routing control unit (internal/
// wormhole), the wave-pipelined switches S1..Sk with the PCS routing control
// unit (internal/pcs), the per-node Circuit Cache registers (internal/
// circuit), and the wave-pipelined data transfers over established circuits.
//
// The two switching techniques deliberately do not interact — "Each switching
// technique uses its own set of resources (routing control unit, switches and
// channels)" — which is what makes the paper's deadlock proofs compositional,
// and what makes this fabric a thin deterministic scheduler over the two
// engines.
//
// Circuit data transfer model (DESIGN.md substitution table): once a circuit
// is established, a message of L flits streams contention-free at
// WaveClockMult/NumSwitches flits per wormhole cycle (the physical channel is
// split into k narrower channels, clocked WaveClockMult times faster), after
// a pipeline fill of Hops/WaveClockMult cycles; the end-to-end window
// acknowledgment then returns over the control channels at one hop per cycle
// before the In-use bit clears.
package core

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// Params configures the wave router fabric. The zero value is invalid; start
// from DefaultParams.
type Params struct {
	// NumVCs is w, the wormhole virtual channels per physical channel.
	NumVCs int
	// BufDepth is the wormhole per-VC buffer depth in flits.
	BufDepth int
	// CreditDelay is the wormhole credit-return delay in cycles (0 = the
	// instantaneous credit path; see wormhole.Params.CreditDelay).
	CreditDelay int
	// RouteDelay is the wormhole per-hop route-computation delay in cycles
	// (see wormhole.Params.RouteDelay).
	RouteDelay int
	// RecoveryTimeout, when positive, enables abort-and-retry deadlock
	// recovery in the wormhole network (see wormhole.RecoveryParams). It is
	// required when Routing is "dor-nodateline" or "vcfree-nolabel", whose
	// dependency graphs are cyclic by design.
	RecoveryTimeout int64
	// Routing selects the wormhole routing function (see routing.Names).
	Routing string
	// NumSwitches is k, the wave-pipelined switches per router.
	NumSwitches int
	// MaxMisroutes is m in the MB-m probe protocol.
	MaxMisroutes int
	// WaveClockMult is the wave-pipelined clock as a multiple of the wormhole
	// clock (the paper's Spice experiments support up to 4).
	WaveClockMult float64
	// CacheCapacity is the number of Circuit Cache entries per node.
	CacheCapacity int
	// ReplacePolicy selects the CLRP replacement algorithm: "lru", "lfu" or
	// "random".
	ReplacePolicy string
	// InitialBufFlits is the endpoint message-buffer size CLRP allocates
	// when a circuit is established without knowing the longest message
	// ("A reasonably large buffer can be allocated", section 2). Messages
	// longer than the current buffer trigger a re-allocation costing
	// ReallocPenalty cycles before the transfer starts. Zero disables the
	// endpoint-buffer model entirely.
	InitialBufFlits int
	// ReallocPenalty is the cycle cost of growing the endpoint buffers.
	ReallocPenalty int64
	// WindowFlits bounds the end-to-end window of circuit transfers: the
	// source may have at most this many unacknowledged flits in flight
	// (paper section 2: "a windowing protocol is implemented. This protocol
	// requires deep delivery buffers"). Zero means buffers deep enough that
	// the window never throttles — the paper's design point.
	WindowFlits int
	// Seed drives every random decision in the fabric.
	Seed uint64
}

// DefaultParams is the baseline configuration of the experiments: w=3 VCs of
// depth 4 (Duato adaptive routing on a torus needs two dateline escape
// classes plus at least one adaptive channel), k=2 wave switches, MB-2
// probes, 4x wave clock, 8-entry LRU circuit caches.
func DefaultParams() Params {
	return Params{
		NumVCs:        3,
		BufDepth:      4,
		Routing:       "duato",
		NumSwitches:   2,
		MaxMisroutes:  2,
		WaveClockMult: 4,
		CacheCapacity: 8,
		ReplacePolicy: "lru",
		Seed:          1,
	}
}

func (p Params) validate() error {
	if m := p.WaveClockMult; !(m > 0) || math.IsInf(m, 0) {
		return fmt.Errorf("core: WaveClockMult must be positive and finite, got %g", m)
	}
	if p.CacheCapacity < 1 {
		return fmt.Errorf("core: CacheCapacity must be >= 1, got %d", p.CacheCapacity)
	}
	var probe circuit.Cache
	return probe.Reset(p.CacheCapacity, p.ReplacePolicy, 0)
}

// BufUnlimited marks a circuit whose endpoint buffers are pre-sized for the
// longest message of its set (CARP) — re-allocation never triggers.
const BufUnlimited = 1 << 30

// Descriptor event kinds (engine.Event.Kind). Every steady-state fabric
// event is one of these, dispatched by execEvent from its serialisable
// (Kind, Args) form — which is what lets a snapshot capture the pending
// event queue. Kind 0 is never scheduled.
const (
	// evCircuitDeliver: a circuit transfer completes.
	// Args: msgID, src, dst, len, injectTime.
	evCircuitDeliver uint8 = iota + 1
	// evCircuitAck: the end-to-end window acknowledgment returns and the
	// In-use bit clears. Args: src, dst, circuitID.
	evCircuitAck
	// evFaultInject: a dynamic wave-channel fault fires.
	// Args: link, switch, repairDelay.
	evFaultInject
	// evFaultRepair: a faulted channel returns to service. Args: link, switch.
	evFaultRepair
	// evRetry: a protocol-layer probe-retry backoff timer fires.
	// Args: src, dst.
	evRetry
)

// CircuitRate returns the streaming bandwidth of one circuit in flits per
// wormhole cycle.
func (p Params) CircuitRate() float64 { return p.WaveClockMult / float64(p.NumSwitches) }

// Hooks are the fabric's upcalls to the protocol/statistics layer, all
// registered once at construction. They are handlers, not per-call closures,
// so that pending work stays data and survives a snapshot: a probe carries
// its tag, an event its (Kind, Args) descriptor, and a restored fabric
// re-enters the same code through the same registration.
type Hooks struct {
	// DeliveredWormhole fires when a wormhole message's tail is consumed.
	DeliveredWormhole func(m flit.Message, now int64)
	// DeliveredCircuit fires when a circuit-switched message fully arrives.
	DeliveredCircuit func(m flit.Message, now int64)
	// CircuitFreed fires when a circuit starting at src toward dst has been
	// fully torn down and its cache entry removed. The NI uses it to re-issue
	// messages that were queued on the dead circuit.
	CircuitFreed func(src, dst topology.Node, id circuit.ID)
	// ProbeDone receives the outcome of every probe started with
	// LaunchProbeTagged, with the probe's identity and caller tag.
	ProbeDone func(src, dst topology.Node, sw int, force bool, tag int64, res pcs.SetupResult)
	// Retry executes an evRetry timer scheduled through ScheduleRetry.
	Retry func(src, dst topology.Node, now int64)
	// CircuitIdle runs when a window acknowledgment clears a circuit's
	// In-use bit.
	CircuitIdle func(src, dst topology.Node)
}

// Fabric is the whole-network wave-switching substrate.
type Fabric struct {
	Topo topology.Topology
	Prm  Params
	WH   *wormhole.Engine
	PCS  *pcs.Engine

	hooks Hooks
	rng   *sim.RNG
	// caches holds every node's Circuit Cache by value, each in its zero
	// (unconfigured, empty) state until Cache first returns it. splits is
	// the fabric RNG as construction found it: node n's random-policy
	// generator is its n-th split (sim.RNG.SplitState), and rng has
	// skipped over all of them.
	caches []circuit.Cache
	splits sim.RNG

	// events holds scheduled fabric actions (circuit deliveries, window
	// acks, fault injections, retry timers).
	events *engine.Events
	now    int64

	// Counters.
	CircuitFlitsDelivered int64
	CircuitMsgsDelivered  int64
	// Reallocs counts endpoint-buffer re-allocations (CLRP growing pains).
	Reallocs int64
	// WaveLinkFlits counts circuit-carried flits per physical link slot
	// (summed over the k wave channels of the link), for utilization maps.
	WaveLinkFlits []int64

	// flitsIn counts the flits handed to the fabric by InjectWormhole and
	// SendOnCircuit, which Check balances against where they went. It is
	// not snapshotted: decoding sets it to the balance of the restored
	// state.
	flitsIn int64
}

// New builds the fabric.
func New(topo topology.Topology, prm Params, hooks Hooks) (*Fabric, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	fn, err := routing.New(prm.Routing, topo, prm.NumVCs)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Topo:          topo,
		Prm:           prm,
		hooks:         hooks,
		rng:           sim.NewRNG(prm.Seed),
		events:        engine.NewShardedEvents(0),
		WaveLinkFlits: make([]int64, topo.NumLinkSlots()),
	}
	f.WH, err = wormhole.New(topo, fn, wormhole.Params{NumVCs: prm.NumVCs, BufDepth: prm.BufDepth, CreditDelay: prm.CreditDelay, RouteDelay: prm.RouteDelay}, wormhole.Hooks{
		Delivered: func(m flit.Message, now int64) {
			if hooks.DeliveredWormhole != nil {
				hooks.DeliveredWormhole(m, now)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if prm.RecoveryTimeout > 0 {
		if err := f.WH.EnableRecovery(wormhole.RecoveryParams{Timeout: prm.RecoveryTimeout}); err != nil {
			return nil, err
		}
	} else if prm.Routing == "dor-nodateline" || prm.Routing == "vcfree-nolabel" {
		return nil, fmt.Errorf("core: routing %q can deadlock; set RecoveryTimeout to enable abort-and-retry", prm.Routing)
	}
	f.PCS, err = pcs.New(topo, pcs.Params{NumSwitches: prm.NumSwitches, MaxMisroutes: prm.MaxMisroutes}, (*fabricHost)(f))
	if err != nil {
		return nil, err
	}
	// Teardown completions drop the cache entry and let the NI re-issue
	// whatever was queued on the dead circuit.
	f.PCS.SetProbeDone(hooks.ProbeDone)
	f.PCS.SetCircuitFreed(func(src, dst topology.Node, id circuit.ID) {
		f.Cache(src).Remove(dst)
		if f.hooks.CircuitFreed != nil {
			f.hooks.CircuitFreed(src, dst, id)
		}
	})
	f.caches = make([]circuit.Cache, topo.Nodes())
	f.splits = *f.rng
	f.rng.Skip(uint64(topo.Nodes()))
	return f, nil
}

// Cache returns node n's Circuit Cache registers. A cache is configured on
// first use: its capacity and policy come from Params, and a random
// policy's generator is the fabric RNG's n-th split, as if every node had
// split one off at construction.
func (f *Fabric) Cache(n topology.Node) *circuit.Cache {
	c := &f.caches[n]
	if c.Capacity() == 0 {
		// Params.validate ran the same Reset, so it cannot fail here.
		_ = c.Reset(f.Prm.CacheCapacity, f.Prm.ReplacePolicy, f.splits.SplitState(uint64(n)))
	}
	return c
}

// Now returns the fabric's view of the current cycle.
func (f *Fabric) Now() int64 { return f.now }

// Cycle advances everything by one wormhole clock: due events in (at, seq)
// order, then the wormhole engine, then the PCS engine. It reports whether
// work moved: an event fired, or either engine moved something.
func (f *Fabric) Cycle(now int64) bool {
	f.now = now
	due := f.events.PopDue(now)
	for _, ev := range due {
		f.execEvent(ev.Kind, ev.Args, now)
	}
	whMoved := f.WH.Cycle(now)
	pcsMoved := f.PCS.Cycle(now)
	return len(due) > 0 || whMoved || pcsMoved
}

// execEvent dispatches one descriptor event (see the ev* kind constants).
func (f *Fabric) execEvent(kind uint8, args [engine.NumEventArgs]int64, now int64) {
	switch kind {
	case evCircuitDeliver:
		m := flit.Message{
			ID:         flit.MsgID(args[0]),
			Src:        int(args[1]),
			Dst:        int(args[2]),
			Len:        int(args[3]),
			InjectTime: args[4],
		}
		f.CircuitMsgsDelivered++
		f.CircuitFlitsDelivered += int64(m.Len)
		if f.hooks.DeliveredCircuit != nil {
			f.hooks.DeliveredCircuit(m, now)
		}
	case evCircuitAck:
		src, dst := topology.Node(args[0]), topology.Node(args[1])
		if entry, ok := f.Cache(src).Peek(dst); ok && entry.ID == circuit.ID(args[2]) {
			entry.InUse = false
		}
		if f.hooks.CircuitIdle != nil {
			f.hooks.CircuitIdle(src, dst)
		}
	case evFaultInject:
		ch := pcs.Channel{Link: topology.LinkID(args[0]), Switch: int(args[1])}
		f.PCS.InjectDynamicFault(ch)
		if repair := args[2]; repair > 0 {
			f.events.ScheduleKind(0, now+repair, evFaultRepair,
				[engine.NumEventArgs]int64{args[0], args[1]})
		}
	case evFaultRepair:
		f.PCS.RepairFault(pcs.Channel{Link: topology.LinkID(args[0]), Switch: int(args[1])})
	case evRetry:
		if f.hooks.Retry != nil {
			f.hooks.Retry(topology.Node(args[0]), topology.Node(args[1]), now)
		}
	default:
		panic(fmt.Sprintf("core: unknown event kind %d", kind))
	}
}

// ScheduleRetry queues a probe-retry timer for the (src, dst) pair at cycle
// `at` (strictly in the future); Hooks.Retry executes it.
func (f *Fabric) ScheduleRetry(src, dst topology.Node, at int64) {
	if at <= f.now {
		panic(fmt.Sprintf("core: ScheduleRetry(%d) is not in the future (now %d)", at, f.now))
	}
	f.events.ScheduleKind(0, at, evRetry,
		[engine.NumEventArgs]int64{int64(src), int64(dst)})
}

// ScheduleFault arms one dynamic wave-channel fault: ch fails at cycle `at`;
// when repair > 0 the channel returns to service repair cycles after the
// injection. Faults ride the event queue, so injection commits in the event
// phase of the owning cycle.
func (f *Fabric) ScheduleFault(at int64, ch pcs.Channel, repair int64) error {
	if at <= f.now {
		return fmt.Errorf("core: fault at cycle %d is not in the future (now %d)", at, f.now)
	}
	if repair < 0 {
		return fmt.Errorf("core: fault repair delay must be >= 0, got %d", repair)
	}
	tab := f.Topo.Links()
	if !tab.Exists(ch.Link) {
		return fmt.Errorf("core: fault on nonexistent link %d", ch.Link)
	}
	if ch.Switch < 0 || ch.Switch >= f.Prm.NumSwitches {
		return fmt.Errorf("core: fault on switch %d out of range (0..%d)", ch.Switch, f.Prm.NumSwitches-1)
	}
	f.events.ScheduleKind(0, at, evFaultInject,
		[engine.NumEventArgs]int64{int64(ch.Link), int64(ch.Switch), repair})
	return nil
}

// InjectWormhole sends a message through switch S0.
func (f *Fabric) InjectWormhole(m flit.Message) {
	f.flitsIn += int64(m.Len)
	f.WH.Inject(m)
}

// LaunchProbeTagged starts a circuit-setup attempt whose outcome reports
// through Hooks.ProbeDone, carrying tag (see pcs.Engine.LaunchProbeTagged).
func (f *Fabric) LaunchProbeTagged(src, dst topology.Node, sw int, force bool, tag int64) {
	f.PCS.LaunchProbeTagged(src, dst, sw, force, tag)
}

// SendOnCircuit streams message m over the established circuit recorded in
// entry, which must be Established, not InUse, and registered in the
// Circuit Cache of node m.Src. When the end-to-end acknowledgment returns, the In-use bit
// clears and Hooks.CircuitIdle runs (the NI then sends the
// next queued message or honours a pending release).
//
// When the endpoint-buffer model is enabled (InitialBufFlits > 0), a message
// longer than the circuit's current buffers first pays ReallocPenalty cycles
// while the buffers grow ("buffers may have the be re-allocated for longer
// messages", section 2).
func (f *Fabric) SendOnCircuit(entry *circuit.Entry, m flit.Message) {
	if entry.State != circuit.Established {
		panic("core: SendOnCircuit on non-established circuit")
	}
	if entry.InUse {
		panic("core: SendOnCircuit while circuit in use")
	}
	c, ok := f.PCS.CircuitByID(entry.ID)
	if !ok {
		panic(fmt.Sprintf("core: circuit %d missing from PCS registry", entry.ID))
	}
	var setupDelay int64
	if f.Prm.InitialBufFlits > 0 && entry.BufFlits < m.Len {
		// CARP entries carry BufUnlimited and never re-allocate.
		setupDelay = f.Prm.ReallocPenalty
		f.Reallocs++
		entry.BufFlits = m.Len
	}
	hops := len(c.Path)
	rate := f.Prm.CircuitRate()
	fill := float64(hops) / f.Prm.WaveClockMult
	// End-to-end window: with at most W unacknowledged flits, the sustained
	// rate is bounded by W per round trip (pipeline fill down plus the
	// acknowledgment returning over the control channels at one hop/cycle).
	if w := f.Prm.WindowFlits; w > 0 {
		rtt := fill + float64(hops)
		if wRate := float64(w) / rtt; wRate < rate {
			rate = wRate
		}
	}
	transfer := int64(math.Ceil(fill + float64(m.Len)/rate))
	if transfer < 1 {
		transfer = 1
	}
	deliverAt := f.now + setupDelay + transfer
	ackAt := deliverAt + int64(hops) // window ack over control channels

	f.flitsIn += int64(m.Len)
	entry.InUse = true
	entry.Touch(f.now)
	for _, ch := range c.Path {
		f.WaveLinkFlits[ch.Link] += int64(m.Len)
	}

	f.events.ScheduleKind(0, deliverAt, evCircuitDeliver,
		[engine.NumEventArgs]int64{int64(m.ID), int64(m.Src), int64(m.Dst), int64(m.Len), m.InjectTime})
	// The ack event clears the In-use bit (guarded by the circuit ID, in case
	// the entry was replaced meanwhile) and fires Hooks.CircuitIdle.
	f.events.ScheduleKind(0, ackAt, evCircuitAck,
		[engine.NumEventArgs]int64{int64(m.Src), int64(entry.Dest), int64(entry.ID)})
}

// RequestTeardown initiates release of the circuit behind a cache entry at
// node src, honouring the In-use bit: an in-use circuit is marked and torn
// down when the acknowledgment clears it. Safe to call repeatedly.
func (f *Fabric) RequestTeardown(src topology.Node, entry *circuit.Entry) {
	entry.ReleaseRequested = true
	if entry.InUse || entry.State != circuit.Established {
		return // the onIdle/ack path or setup completion will resume this
	}
	f.teardownNow(src, entry)
}

// teardownNow starts the teardown control flit for an idle established
// entry. Completion reports through the CircuitFreed handler registered at
// construction, which removes the cache entry and notifies the NI.
func (f *Fabric) teardownNow(src topology.Node, entry *circuit.Entry) {
	if entry.State == circuit.Releasing {
		return
	}
	entry.State = circuit.Releasing
	f.PCS.TeardownNotify(entry.ID)
}

// MaybeHonourRelease completes a deferred release once a circuit goes idle;
// the NI calls it from its onIdle handler. It returns true if a teardown was
// started (the caller must stop using the entry).
func (f *Fabric) MaybeHonourRelease(src topology.Node, entry *circuit.Entry) bool {
	if entry.ReleaseRequested && !entry.InUse && entry.State == circuit.Established {
		f.teardownNow(src, entry)
		return true
	}
	return entry.State == circuit.Releasing
}

// ---------------------------------------------------------------------------
// pcs.Host implementation. Defined on a distinct named type so the Host
// methods don't pollute the Fabric's public API surface.

type fabricHost Fabric

// RequestLocalRelease implements pcs.Host: the Force-phase preference for
// victims among circuits starting at the blocked node.
func (h *fabricHost) RequestLocalRelease(n topology.Node, wanted func(pcs.Channel) bool) (pcs.Channel, bool) {
	f := (*Fabric)(h)
	victim := f.Cache(n).VictimUsingChannel(func(link topology.LinkID, sw int) bool {
		return wanted(pcs.Channel{Link: link, Switch: sw})
	})
	if victim == nil {
		return pcs.Channel{}, false
	}
	ch := pcs.Channel{Link: victim.Channel, Switch: victim.Switch}
	f.RequestTeardown(n, victim)
	return ch, true
}

// RequestRemoteRelease implements pcs.Host: a release control flit reached
// the source node of circuit id.
func (h *fabricHost) RequestRemoteRelease(id circuit.ID) {
	f := (*Fabric)(h)
	c, ok := f.PCS.CircuitByID(id)
	if !ok {
		return // torn down while the flit was in flight
	}
	entry, ok := f.Cache(c.Src).Peek(c.Dst)
	if !ok || entry.ID != id {
		return // cache entry already replaced
	}
	f.RequestTeardown(c.Src, entry)
}
