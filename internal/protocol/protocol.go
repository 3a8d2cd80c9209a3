// Package protocol implements the paper's two routing protocols on top of
// the wave-switching fabric:
//
//   - CLRP, the Cache-Like Routing Protocol (section 3.1): the network is a
//     cache of circuits. A send with no cached circuit establishes one in
//     three phases — probe every wave switch without Force, re-probe with the
//     Force bit set (tearing down victim circuits chosen by the replacement
//     algorithm), and finally fall back to wormhole switching.
//
//   - CARP, the Compiler-Aided Routing Protocol (section 3.2): the program
//     explicitly opens and closes circuits for message sets; probes never
//     force, and failed circuits mean wormhole switching.
//
// Two baselines complete the evaluation matrix: pure wormhole switching
// (every message through switch S0) and per-message PCS (a circuit is
// established for each message and torn down right after — the "simplest
// version of wave router" with k=1, w=0 the paper sketches).
package protocol

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind selects the protocol.
type Kind string

const (
	// Wormhole sends every message through switch S0.
	Wormhole Kind = "wormhole"
	// CLRP is the Cache-Like Routing Protocol.
	CLRP Kind = "clrp"
	// CARP is the Compiler-Aided Routing Protocol.
	CARP Kind = "carp"
	// PCS establishes a fresh circuit per message and tears it down after.
	PCS Kind = "pcs"
)

// ParseKind validates a protocol name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case Wormhole, CLRP, CARP, PCS:
		return Kind(s), nil
	default:
		return "", fmt.Errorf("protocol: unknown protocol %q (want wormhole, clrp, carp or pcs)", s)
	}
}

// Options tunes the CLRP simplifications the paper sketches in section 3.1
// (the E9 ablation experiment).
type Options struct {
	// ForceFirst skips phase one entirely: the first probe already carries
	// the Force bit ("the Force bit can be set when the probe is first sent
	// ... therefore skipping phase one").
	ForceFirst bool
	// SinglePhase2Switch makes phase two try only the Initial Switch instead
	// of cycling through all of them ("the second phase may try a single
	// switch").
	SinglePhase2Switch bool
	// MinCircuitFlits makes CLRP route messages shorter than this through
	// wormhole switching directly, without consulting the circuit cache — a
	// hybrid of CLRP's automation and CARP's insight that circuits are "not
	// established for individual short messages". Zero disables the
	// threshold (the paper's plain CLRP).
	MinCircuitFlits int
	// NoSwitchSpread disables the paper's neighbour-spreading heuristic for
	// the initial wave switch ("node (x,y) can first try switch 1+(x+y) mod
	// k"): every probe starts at switch S1 instead. Used by the E18 ablation
	// to measure what the heuristic is worth.
	NoSwitchSpread bool
	// ProbeRetryLimit, when positive, lets a fully failed setup sequence
	// (every switch, both CLRP phases) re-arm up to this many times before
	// the failure is final (CLRP phase 3 / CARP wormhole fallback). Retries
	// are what make dynamic faults survivable: a transiently faulted channel
	// may be back in service by the time the retry fires. Zero keeps the
	// paper's single-sequence behaviour, bit-identical to before.
	ProbeRetryLimit int
	// RetryBackoffCycles is the base of the deterministic linear backoff:
	// retry r fires r*RetryBackoffCycles cycles after the failure (values
	// below 1 are treated as 1). The timer rides the fabric event queue, so
	// backoff waits are deterministic and survive a snapshot.
	RetryBackoffCycles int64
}

// Counters aggregates protocol-level statistics.
type Counters struct {
	Sent                  int64
	DeliveredWormhole     int64
	DeliveredCircuit      int64
	FallbackWormhole      int64 // circuit wanted, wormhole used
	SetupsStarted         int64
	SetupsOK              int64
	SetupsFailed          int64
	Phase2Entered         int64
	Phase3Entered         int64
	OpensRequested        int64 // CARP
	ClosesRequested       int64 // CARP
	SetupCyclesTotal      int64 // summed setup latency of successful setups
	CircuitMessagesQueued int64
	// ShortBypass counts CLRP messages routed by wormhole because they were
	// below the MinCircuitFlits threshold (hybrid policy, not a fallback).
	ShortBypass int64
	// CircuitWaitCycles sums, over circuit-carried messages, the cycles
	// between Send and the transfer actually starting (setup + queueing
	// behind the in-use circuit); CircuitSendsStarted counts them.
	CircuitWaitCycles   int64
	CircuitSendsStarted int64
	// SetupRetries counts failed setup sequences re-armed by the
	// ProbeRetryLimit/RetryBackoffCycles fault-recovery machinery.
	SetupRetries int64
}

// Hooks are the protocol manager's upcalls.
type Hooks struct {
	// Delivered fires for every message, with the substrate that carried it.
	Delivered func(m flit.Message, now int64, viaCircuit bool)
}

// destState is one node's per-destination protocol state.
type destState struct {
	// queue[head:] waits for circuit setup or circuit idle, oldest first.
	// An empty queue holds no array: the manager lends one (enqueue) and
	// takes it back when the queue drains, so arrays circulate among the
	// destinations with messages waiting. A queue that never drains is
	// compacted in place as it is popped (sim.Compact).
	queue    []flit.Message
	head     int
	opening  bool // setup FSM active
	closeReq bool // CARP: close once drained
	wantSlot bool // CLRP: waiting for a cache slot to free
	retries  int  // setup sequences re-armed for the current FSM run
}

// pending returns the queued messages, oldest first.
func (ds *destState) pending() []flit.Message { return ds.queue[ds.head:] }

// Manager drives the protocol for every node over one fabric.
type Manager struct {
	Kind Kind
	Fab  *core.Fabric
	Opt  Options

	hooks Hooks
	// dests[node][dst] is allocated lazily.
	dests []map[topology.Node]*destState

	nextMsg flit.MsgID
	// sent[head:] is the in-flight window: the inject times of messages
	// nextMsg-len(sent[head:])+1 .. nextMsg in ID order, -1 once delivered,
	// and live counts the entries still in flight. Send issues IDs in
	// order, so the first undelivered entry is the oldest message.
	// OldestAge moves head past delivered entries and compacts, so the
	// per-cycle watchdog probe is O(1) amortised and the array stays
	// proportional to the window.
	sent []int64
	head int
	live int

	// slotWaiters[n] lists, in ascending order, the destinations of node n
	// whose state waits for a cache slot (destState.wantSlot), so a freed
	// circuit wakes them without walking every destination n has addressed.
	// It is derived from the wantSlot flags (setWantSlot keeps it in step).
	slotWaiters [][]topology.Node
	// waiters is circuitFreed's reusable copy of one node's slotWaiters.
	waiters []topology.Node
	// freeQueues holds the empty queue arrays enqueue lends out.
	freeQueues [][]flit.Message

	// Events, when non-nil, records protocol actions (see internal/events).
	Events *events.Log

	Ctr Counters
}

// New builds the fabric and the protocol manager on top of it.
func New(topo topology.Topology, prm core.Params, kind Kind, opt Options, hooks Hooks) (*Manager, error) {
	m := &Manager{
		Kind:        kind,
		Opt:         opt,
		hooks:       hooks,
		dests:       make([]map[topology.Node]*destState, topo.Nodes()),
		slotWaiters: make([][]topology.Node, topo.Nodes()),
	}
	switch kind {
	case Wormhole, CLRP, CARP, PCS:
	default:
		return nil, fmt.Errorf("protocol: unknown kind %q", kind)
	}
	fab, err := core.New(topo, prm, core.Hooks{
		DeliveredWormhole: func(msg flit.Message, now int64) { m.delivered(msg, now, false) },
		DeliveredCircuit:  func(msg flit.Message, now int64) { m.delivered(msg, now, true) },
		CircuitFreed:      m.circuitFreed,
		ProbeDone:         m.probeDone,
		Retry:             m.retryFire,
		CircuitIdle:       m.circuitIdle,
	})
	if err != nil {
		return nil, err
	}
	m.Fab = fab
	return m, nil
}

// Cycle advances the underlying fabric and reports whether work moved.
func (m *Manager) Cycle(now int64) bool { return m.Fab.Cycle(now) }

// InFlight returns messages accepted by Send but not yet delivered.
func (m *Manager) InFlight() int { return m.live }

// OldestAge returns the age of the oldest undelivered message.
func (m *Manager) OldestAge(now int64) int64 {
	i := m.head
	for i < len(m.sent) && m.sent[i] < 0 {
		i++
	}
	m.sent, m.head = sim.Compact(m.sent, i)
	if m.live == 0 {
		return 0
	}
	return now - m.sent[m.head]
}

// windowIndex returns the index in sent of message id.
func (m *Manager) windowIndex(id flit.MsgID) int { return len(m.sent) - 1 - int(m.nextMsg-id) }

func (m *Manager) delivered(msg flit.Message, now int64, viaCircuit bool) {
	// Only a forged snapshot can deliver a message the window does not
	// hold as in flight; that changes no window entry.
	if i := m.windowIndex(msg.ID); i >= m.head && i < len(m.sent) && m.sent[i] >= 0 {
		m.sent[i] = -1
		m.live--
	}
	if viaCircuit {
		m.Ctr.DeliveredCircuit++
		m.ev(events.DeliverCircuit, msg.Src, msg.Dst, int64(msg.ID))
	} else {
		m.Ctr.DeliveredWormhole++
		m.ev(events.DeliverWormhole, msg.Src, msg.Dst, int64(msg.ID))
	}
	if m.hooks.Delivered != nil {
		m.hooks.Delivered(msg, now, viaCircuit)
	}
}

// setWantSlot sets whether src's destination dst (state ds) waits for a
// cache slot, keeping slotWaiters[src] in step.
func (m *Manager) setWantSlot(src, dst topology.Node, ds *destState, want bool) {
	if ds.wantSlot == want {
		return
	}
	ds.wantSlot = want
	w := m.slotWaiters[src]
	i, found := slices.BinarySearch(w, dst)
	switch {
	case want:
		m.slotWaiters[src] = slices.Insert(w, i, dst)
	case found:
		m.slotWaiters[src] = slices.Delete(w, i, i+1)
	}
}

// enqueue appends msg to ds's queue, lending an empty queue an array from
// the free list.
func (m *Manager) enqueue(ds *destState, msg flit.Message) {
	if ds.queue == nil {
		if n := len(m.freeQueues); n > 0 {
			ds.queue = m.freeQueues[n-1]
			m.freeQueues = m.freeQueues[:n-1]
		}
	}
	ds.queue = append(ds.queue, msg)
}

// pop removes and returns the oldest queued message, taking the array back
// once the queue drains.
func (m *Manager) pop(ds *destState) flit.Message {
	msg := ds.queue[ds.head]
	if ds.head+1 == len(ds.queue) {
		m.releaseQueue(ds)
	} else {
		ds.queue, ds.head = sim.Compact(ds.queue, ds.head+1)
	}
	return msg
}

// takeQueue empties ds's queue and returns what it held, oldest first. The
// array is detached from ds, so messages the caller re-queues while walking
// it go to another one; the caller hands it back with freeQueue.
func (m *Manager) takeQueue(ds *destState) []flit.Message {
	q := ds.pending()
	ds.queue, ds.head = nil, 0
	return q
}

// releaseQueue returns the array of ds's drained queue to the free list.
func (m *Manager) releaseQueue(ds *destState) {
	m.freeQueue(ds.queue)
	ds.queue, ds.head = nil, 0
}

// freeQueue returns a queue array to the free list.
func (m *Manager) freeQueue(q []flit.Message) {
	if cap(q) > 0 {
		m.freeQueues = append(m.freeQueues, q[:0])
	}
}

// ev records a protocol event when logging is enabled.
func (m *Manager) ev(k events.Kind, node, peer int, arg int64) {
	if m.Events != nil {
		m.Events.Record(events.Event{Cycle: m.Fab.Now(), Kind: k, Node: node, Peer: peer, Arg: arg})
	}
}

func (m *Manager) dest(n, dst topology.Node) *destState {
	if m.dests[n] == nil {
		m.dests[n] = make(map[topology.Node]*destState)
	}
	ds := m.dests[n][dst]
	if ds == nil {
		ds = &destState{}
		m.dests[n][dst] = ds
	}
	return ds
}

// initialSwitch implements the paper's neighbour-spreading heuristic: "in a
// 2D-mesh, node (x,y) can first try switch 1+(x+y) mod k" (0-based here).
// Families without cube coordinates spread by node number instead.
func (m *Manager) initialSwitch(n topology.Node) int {
	k := m.Fab.Prm.NumSwitches
	if m.Opt.NoSwitchSpread {
		return 0
	}
	t := m.Fab.Topo.Links()
	if t.Dims == 0 {
		return int(n) % k
	}
	sum := 0
	for _, x := range t.Coords[int(n)*t.Dims : (int(n)+1)*t.Dims] {
		sum += int(x)
	}
	return sum % k
}

// Send accepts a message at its source node at cycle `now`. wantCircuit is
// honoured only by CARP (the compiler decides which message sets use
// circuits); CLRP always consults its cache, wormhole never does. The
// message ID is returned for tracing.
func (m *Manager) Send(src, dst topology.Node, length int, now int64, wantCircuit bool) flit.MsgID {
	if length < 1 {
		panic("protocol: message needs at least one flit")
	}
	m.nextMsg++
	msg := flit.Message{ID: m.nextMsg, Src: int(src), Dst: int(dst), Len: length, InjectTime: now}
	m.Ctr.Sent++
	m.sent = append(m.sent, now)
	m.live++
	m.ev(events.Send, msg.Src, msg.Dst, int64(msg.ID))
	m.route(msg, wantCircuit)
	return msg.ID
}

// route dispatches a message (fresh or re-issued) per protocol.
func (m *Manager) route(msg flit.Message, wantCircuit bool) {
	src, dst := topology.Node(msg.Src), topology.Node(msg.Dst)
	if src == dst {
		// Local messages never touch the network fabric's circuits.
		m.Fab.InjectWormhole(msg)
		return
	}
	switch m.Kind {
	case Wormhole:
		m.Fab.InjectWormhole(msg)
	case CLRP:
		m.clrpSend(src, dst, msg)
	case CARP:
		m.carpSend(src, dst, msg, wantCircuit)
	case PCS:
		m.pcsSend(src, dst, msg)
	}
}

// ---------------------------------------------------------------------------
// CLRP.

func (m *Manager) clrpSend(src, dst topology.Node, msg flit.Message) {
	if m.Opt.MinCircuitFlits > 0 && msg.Len < m.Opt.MinCircuitFlits {
		// Hybrid policy: short messages are not worth a circuit; keep them
		// on switch S0 and keep the wave channels for bulk transfers.
		m.Ctr.ShortBypass++
		m.Fab.InjectWormhole(msg)
		return
	}
	cache := m.Fab.Cache(src)
	ds := m.dest(src, dst)
	if entry, ok := cache.Lookup(dst, true); ok {
		// Hit (established) or setup already in progress: queue behind it.
		m.enqueue(ds, msg)
		m.Ctr.CircuitMessagesQueued++
		if entry.State == circuit.Established {
			m.pump(src, dst, entry)
		}
		return
	}
	// Miss. If the previous circuit is being released (or was promised to a
	// Force probe), wait for CircuitFreed to retry.
	if raw, exists := cache.Peek(dst); exists {
		m.enqueue(ds, msg)
		m.Ctr.CircuitMessagesQueued++
		_ = raw
		return
	}
	if ds.opening {
		m.enqueue(ds, msg)
		m.Ctr.CircuitMessagesQueued++
		return
	}
	// Need a fresh cache entry; make room if the cache is full.
	if cache.Full() {
		victim := cache.AnyVictim()
		if victim == nil {
			// Everything is pinned: this message cannot wait for a slot
			// deterministically soon, so it travels by wormhole.
			m.Ctr.FallbackWormhole++
			m.ev(events.Fallback, msg.Src, msg.Dst, int64(msg.ID))
			m.Fab.InjectWormhole(msg)
			return
		}
		m.enqueue(ds, msg)
		m.Ctr.CircuitMessagesQueued++
		m.setWantSlot(src, dst, ds, true)
		m.Fab.RequestTeardown(src, victim)
		return
	}
	m.enqueue(ds, msg)
	m.Ctr.CircuitMessagesQueued++
	m.startSetup(src, dst)
}

// startSetup creates the cache entry and launches the CLRP probe sequence.
func (m *Manager) startSetup(src, dst topology.Node) {
	cache := m.Fab.Cache(src)
	ds := m.dest(src, dst)
	initial := m.initialSwitch(src)
	entry := &circuit.Entry{Dest: dst, Switch: initial, InitialSwitch: initial, State: circuit.Setting}
	if err := cache.Insert(entry); err != nil {
		panic(fmt.Sprintf("protocol: cache slot vanished: %v", err))
	}
	ds.opening = true
	m.setWantSlot(src, dst, ds, false)
	m.Ctr.SetupsStarted++
	m.ev(events.SetupStart, int(src), int(dst), 0)
	force := m.Opt.ForceFirst
	if force {
		m.Ctr.Phase2Entered++
		m.ev(events.Phase2, int(src), int(dst), 0)
	}
	m.probeNext(src, dst, entry, initial, 0, force)
}

// probeNext launches attempt number `attempt` (switch rotation) of the
// current phase; force selects phase one vs two. The attempt number rides
// the probe as its tag; probeDone picks the sequence back up from it.
func (m *Manager) probeNext(src, dst topology.Node, entry *circuit.Entry, initial, attempt int, force bool) {
	k := m.Fab.Prm.NumSwitches
	sw := (initial + attempt) % k
	entry.Switch = sw
	m.Fab.LaunchProbeTagged(src, dst, sw, force, int64(attempt))
}

// probeDone is the registered probe-completion handler: it continues the
// setup sequence for (src, dst) — next switch, next phase, success or
// exhaustion. The cache entry is re-fetched rather than captured, so a
// probe completing after its entry vanished (a fault tore the FSM down)
// is dropped harmlessly.
func (m *Manager) probeDone(src, dst topology.Node, sw int, force bool, tag int64, res pcs.SetupResult) {
	entry, ok := m.Fab.Cache(src).Peek(dst)
	if !ok {
		return
	}
	attempt := int(tag)
	if res.OK {
		m.setupSucceeded(src, dst, entry, res)
		return
	}
	k := m.Fab.Prm.NumSwitches
	limit := k
	if force && m.Opt.SinglePhase2Switch {
		limit = 1
	}
	if attempt+1 < limit {
		m.probeNext(src, dst, entry, entry.InitialSwitch, attempt+1, force)
		return
	}
	if !force && m.Kind == CLRP {
		// Phase two: same switch rotation, Force bit set.
		m.Ctr.Phase2Entered++
		m.ev(events.Phase2, int(src), int(dst), 0)
		m.probeNext(src, dst, entry, entry.InitialSwitch, 0, true)
		return
	}
	m.attemptExhausted(src, dst, entry)
}

// attemptExhausted fires when a full probe sequence — every switch, both
// phases for CLRP — has failed. With a retry budget configured, the setup
// FSM stays open (the cache entry stays Setting, messages keep queueing) and
// the whole sequence re-launches after a deterministic backoff; otherwise,
// or once the budget is spent, the failure is final.
func (m *Manager) attemptExhausted(src, dst topology.Node, entry *circuit.Entry) {
	ds := m.dest(src, dst)
	if m.Opt.ProbeRetryLimit > 0 && ds.retries < m.Opt.ProbeRetryLimit {
		ds.retries++
		m.Ctr.SetupRetries++
		m.ev(events.SetupRetry, int(src), int(dst), int64(ds.retries))
		backoff := m.Opt.RetryBackoffCycles
		if backoff < 1 {
			backoff = 1
		}
		// Linear backoff: the r-th retry waits r times the base, spreading
		// repeated failures out without randomness that could diverge
		// across runs.
		at := m.Fab.Now() + backoff*int64(ds.retries)
		m.Fab.ScheduleRetry(src, dst, at)
		return
	}
	m.setupFailed(src, dst, entry)
}

func (m *Manager) setupSucceeded(src, dst topology.Node, entry *circuit.Entry, res pcs.SetupResult) {
	ds := m.dest(src, dst)
	ds.opening = false
	ds.retries = 0
	entry.ID = res.Circuit
	entry.Channel = res.First.Link
	entry.Switch = res.First.Switch
	entry.State = circuit.Established
	// Endpoint message buffers (paper section 2): CLRP guesses a size now
	// ("the size of the longest message using that circuit is not known at
	// that time"); CARP and per-message PCS know their message sets, so
	// their buffers never re-allocate.
	if m.Kind == CLRP {
		entry.BufFlits = m.Fab.Prm.InitialBufFlits
	} else {
		entry.BufFlits = core.BufUnlimited
	}
	m.Ctr.SetupsOK++
	m.Ctr.SetupCyclesTotal += res.Cycles
	m.ev(events.SetupOK, int(src), int(dst), int64(res.Circuit))
	if m.Fab.MaybeHonourRelease(src, entry) {
		// Somebody already claimed this circuit's channels; queued messages
		// resume via CircuitFreed.
		return
	}
	m.pump(src, dst, entry)
}

// setupFailed is CLRP phase three / CARP failure: the queue drains through
// wormhole switching and the cache entry disappears.
func (m *Manager) setupFailed(src, dst topology.Node, entry *circuit.Entry) {
	ds := m.dest(src, dst)
	ds.opening = false
	ds.closeReq = false
	ds.retries = 0
	m.Ctr.SetupsFailed++
	m.ev(events.SetupFail, int(src), int(dst), 0)
	if m.Kind == CLRP {
		m.Ctr.Phase3Entered++
	}
	m.Fab.Cache(src).Remove(entry.Dest)
	queue := m.takeQueue(ds)
	for _, q := range queue {
		m.Ctr.FallbackWormhole++
		m.ev(events.Fallback, q.Src, q.Dst, int64(q.ID))
		m.Fab.InjectWormhole(q)
	}
	m.freeQueue(queue)
}

// pump transmits the next queued message over an idle established circuit,
// honouring deferred releases (paper: a released circuit's remaining messages
// are re-issued, because the Lookup treats the entry as a miss from the
// moment the release was requested).
func (m *Manager) pump(src, dst topology.Node, entry *circuit.Entry) {
	ds := m.dest(src, dst)
	if m.Fab.MaybeHonourRelease(src, entry) {
		return // teardown started or pending; CircuitFreed resumes the queue
	}
	if entry.InUse || entry.State != circuit.Established {
		return
	}
	if len(ds.pending()) == 0 {
		if ds.closeReq {
			ds.closeReq = false
			m.Fab.RequestTeardown(src, entry)
		} else if m.Kind == PCS {
			// Per-message circuit switching: tear down after every message.
			m.Fab.RequestTeardown(src, entry)
		}
		return
	}
	msg := m.pop(ds)
	m.Ctr.CircuitWaitCycles += m.Fab.Now() - msg.InjectTime
	m.Ctr.CircuitSendsStarted++
	m.Fab.SendOnCircuit(entry, msg)
}

// retryFire is the registered setup-retry handler: the deterministic
// backoff timer expired and the probe sequence re-launches from the top.
func (m *Manager) retryFire(src, dst topology.Node, now int64) {
	entry, ok := m.Fab.Cache(src).Peek(dst)
	if !ok {
		return
	}
	force := m.Opt.ForceFirst && m.Kind == CLRP
	if force {
		m.Ctr.Phase2Entered++
		m.ev(events.Phase2, int(src), int(dst), 0)
	}
	m.probeNext(src, dst, entry, entry.InitialSwitch, 0, force)
}

// circuitIdle is the registered circuit-ack handler: the previous transfer
// finished and the circuit can carry the next queued message.
func (m *Manager) circuitIdle(src, dst topology.Node) {
	entry, ok := m.Fab.Cache(src).Peek(dst)
	if !ok {
		return
	}
	m.pump(src, dst, entry)
}

// circuitFreed is the fabric's notification that a circuit at src towards dst
// is gone; any queued messages re-enter the protocol and slot-waiters wake.
func (m *Manager) circuitFreed(src, dst topology.Node, id circuit.ID) {
	m.ev(events.CircuitFreed, int(src), int(dst), int64(id))
	dsm := m.dests[src]
	if dsm == nil {
		return
	}
	// Re-issue messages queued for the torn-down destination.
	if ds := dsm[dst]; ds != nil && !ds.opening {
		queue := m.takeQueue(ds)
		closeReq := ds.closeReq
		ds.closeReq = false
		for _, q := range queue {
			if m.Kind == CARP && !closeReq {
				// The compiler's circuit died under us (Force victim);
				// remaining messages use wormhole until re-opened.
				m.Ctr.FallbackWormhole++
				m.ev(events.Fallback, q.Src, q.Dst, int64(q.ID))
				m.Fab.InjectWormhole(q)
			} else {
				m.route(q, true)
			}
		}
		m.freeQueue(queue)
	}
	// Wake destinations waiting for a cache slot, in deterministic order.
	cache := m.Fab.Cache(src)
	// The loop walks a copy, since it clears wantSlot flags, and the copy's
	// buffer is detached while in use so a re-entrant call cannot overwrite
	// it.
	waiters := append(m.waiters[:0], m.slotWaiters[src]...)
	m.waiters = nil
	for _, wdst := range waiters {
		ds := dsm[wdst]
		if ds.opening || len(ds.pending()) == 0 {
			m.setWantSlot(src, wdst, ds, false)
			continue
		}
		if _, exists := cache.Peek(wdst); exists {
			m.setWantSlot(src, wdst, ds, false) // a circuit appeared meanwhile; normal flow resumes
			continue
		}
		if !cache.Full() {
			m.setWantSlot(src, wdst, ds, false)
			m.startSetup(src, wdst)
			continue
		}
		// Still full (another waiter took the slot): evict again, or — when
		// every entry is pinned — fall back to wormhole so the queued
		// messages are still delivered in finite time.
		if victim := cache.AnyVictim(); victim != nil {
			m.Fab.RequestTeardown(src, victim)
			continue // stays wantSlot; the next CircuitFreed retries
		}
		m.setWantSlot(src, wdst, ds, false)
		queue := m.takeQueue(ds)
		for _, q := range queue {
			m.Ctr.FallbackWormhole++
			m.ev(events.Fallback, q.Src, q.Dst, int64(q.ID))
			m.Fab.InjectWormhole(q)
		}
		m.freeQueue(queue)
	}
	m.waiters = waiters
}

// ---------------------------------------------------------------------------
// CARP.

// OpenCircuit is the CARP set-up instruction the compiler/programmer emits.
// It is asynchronous: messages sent meanwhile queue behind the setup.
func (m *Manager) OpenCircuit(src, dst topology.Node) {
	if m.Kind != CARP {
		panic("protocol: OpenCircuit is a CARP instruction")
	}
	if src == dst {
		return
	}
	cache := m.Fab.Cache(src)
	m.Ctr.OpensRequested++
	if _, exists := cache.Peek(dst); exists {
		return // already open, opening, or releasing
	}
	ds := m.dest(src, dst)
	if ds.opening {
		return
	}
	if cache.Full() {
		// CARP does not force or evict: the compiler over-subscribed the
		// cache; the open fails and messages will use wormhole.
		m.Ctr.SetupsFailed++
		return
	}
	initial := m.initialSwitch(src)
	entry := &circuit.Entry{Dest: dst, Switch: initial, InitialSwitch: initial, State: circuit.Setting}
	if err := cache.Insert(entry); err != nil {
		panic(fmt.Sprintf("protocol: cache insert failed after Full check: %v", err))
	}
	ds.opening = true
	m.Ctr.SetupsStarted++
	m.probeNext(src, dst, entry, initial, 0, false)
}

// CloseCircuit is the CARP tear-down instruction: the circuit is released
// once queued messages have drained.
func (m *Manager) CloseCircuit(src, dst topology.Node) {
	if m.Kind != CARP {
		panic("protocol: CloseCircuit is a CARP instruction")
	}
	m.Ctr.ClosesRequested++
	cache := m.Fab.Cache(src)
	entry, ok := cache.Peek(dst)
	if !ok {
		return
	}
	ds := m.dest(src, dst)
	if ds.opening || len(ds.pending()) > 0 || entry.InUse || entry.State != circuit.Established {
		ds.closeReq = true
		return
	}
	m.Fab.RequestTeardown(src, entry)
}

func (m *Manager) carpSend(src, dst topology.Node, msg flit.Message, wantCircuit bool) {
	if !wantCircuit {
		m.Fab.InjectWormhole(msg)
		return
	}
	cache := m.Fab.Cache(src)
	ds := m.dest(src, dst)
	entry, ok := cache.Lookup(dst, true)
	if !ok {
		// No circuit (never opened, failed, or being released): wormhole.
		m.Ctr.FallbackWormhole++
		m.ev(events.Fallback, msg.Src, msg.Dst, int64(msg.ID))
		m.Fab.InjectWormhole(msg)
		return
	}
	m.enqueue(ds, msg)
	m.Ctr.CircuitMessagesQueued++
	if entry.State == circuit.Established {
		m.pump(src, dst, entry)
	}
}

// ---------------------------------------------------------------------------
// Per-message PCS baseline.

func (m *Manager) pcsSend(src, dst topology.Node, msg flit.Message) {
	cache := m.Fab.Cache(src)
	ds := m.dest(src, dst)
	m.enqueue(ds, msg)
	m.Ctr.CircuitMessagesQueued++
	if entry, ok := cache.Lookup(dst, false); ok {
		if entry.State == circuit.Established {
			m.pump(src, dst, entry)
		}
		return
	}
	if _, exists := cache.Peek(dst); exists || ds.opening {
		return // releasing or already opening; CircuitFreed / setup resumes
	}
	if cache.Full() {
		victim := cache.AnyVictim()
		if victim == nil {
			ds.queue = ds.queue[:len(ds.queue)-1]
			if len(ds.pending()) == 0 {
				m.releaseQueue(ds)
			}
			m.Ctr.FallbackWormhole++
			m.ev(events.Fallback, msg.Src, msg.Dst, int64(msg.ID))
			m.Fab.InjectWormhole(msg)
			return
		}
		m.setWantSlot(src, dst, ds, true)
		m.Fab.RequestTeardown(src, victim)
		return
	}
	initial := m.initialSwitch(src)
	entry := &circuit.Entry{Dest: dst, Switch: initial, InitialSwitch: initial, State: circuit.Setting}
	if err := cache.Insert(entry); err != nil {
		panic(fmt.Sprintf("protocol: pcs cache insert: %v", err))
	}
	ds.opening = true
	m.Ctr.SetupsStarted++
	m.probeNext(src, dst, entry, initial, 0, false)
}
