// Package wormhole implements the wormhole-switching half of the wave router:
// switch S0, its virtual channels with credit-based link-level flow control,
// and the wormhole routing control unit (Figure 1 of the paper). Messages
// advance flit by flit, holding the channels they occupy and blocking in
// place on contention — exactly the behaviour whose contention cost motivates
// wave switching.
//
// The engine is cycle-driven. Each cycle performs the classic router stages:
// route computation for header flits, virtual-channel allocation, switch
// allocation (one flit per physical link per cycle), and link traversal with
// a one-cycle link delay. Arbitration uses rotating round-robin priority, so
// the simulation is deterministic yet starvation-free.
//
// The steady-state cycle allocates nothing: in-flight messages live in a
// dense slot arena recycled through a free-list in delivery order (never a
// map — recycling order must be canonical for runs to repeat bit for bit),
// injection queues and the credit pipe are head-indexed rings that reset
// when drained, and per-cycle scratch slices are length-reset.
//
// Simplifications relative to hardware, documented per DESIGN.md: credits
// return instantaneously (zero-cycle credit path), and injection queues are
// unbounded source queues (latency is measured from injection time, so
// source queueing is visible in the numbers, not hidden).
package wormhole

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/buffer"
	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Params configures the wormhole engine.
type Params struct {
	// NumVCs is the number of virtual channels per physical channel (the
	// paper's w). The routing function must agree.
	NumVCs int
	// BufDepth is the per-VC input buffer depth in flits.
	BufDepth int
	// CreditDelay is the number of cycles a credit takes to travel back to
	// the upstream router. Zero (the default) models the instantaneous
	// credit path documented in DESIGN.md; positive values let experiments
	// ablate that simplification — with shallow buffers a delayed credit
	// path throttles each virtual channel to BufDepth/(1+CreditDelay)
	// flits per cycle.
	CreditDelay int
	// RouteDelay is the extra cycles a header flit spends in route
	// computation at every router before it may request an output virtual
	// channel. Zero models a single-cycle router. The paper's section 1
	// names this cost explicitly — "virtual channels and adaptive routing
	// make the router more complex, increasing node delay" — and experiment
	// E15 uses RouteDelay to weigh routing sophistication against per-hop
	// latency.
	RouteDelay int
	// DisableActivityTracking runs the allocation and traversal passes as
	// full scans over every input port instead of iterating the active set
	// (see activity.go). Results are bit-identical either way; the full scan
	// is the cross-check oracle for the active-set bookkeeping.
	DisableActivityTracking bool
}

// DefaultParams returns the configuration used throughout the paper-shaped
// experiments: 2 virtual channels with 4-flit buffers.
func DefaultParams() Params { return Params{NumVCs: 2, BufDepth: 4} }

func (p Params) validate() error {
	if p.NumVCs < 1 {
		return fmt.Errorf("wormhole: NumVCs must be >= 1, got %d", p.NumVCs)
	}
	if p.BufDepth < 1 {
		return fmt.Errorf("wormhole: BufDepth must be >= 1, got %d", p.BufDepth)
	}
	if p.CreditDelay < 0 {
		return fmt.Errorf("wormhole: CreditDelay must be >= 0, got %d", p.CreditDelay)
	}
	if p.RouteDelay < 0 {
		return fmt.Errorf("wormhole: RouteDelay must be >= 0, got %d", p.RouteDelay)
	}
	return nil
}

// Hooks are the engine's upcalls.
type Hooks struct {
	// Delivered fires when a message's tail flit is consumed at its
	// destination.
	Delivered func(m flit.Message, now int64)
	// Progress fires whenever at least one flit moved this cycle; the
	// watchdog consumes it.
	Progress func()
}

// pendingCredit is one credit travelling back upstream.
type pendingCredit struct {
	ch int32
	at int64
}

// vcPhase is the lifecycle of an input virtual channel.
type vcPhase uint8

const (
	vcIdle    vcPhase = iota // no message
	vcRouting                // header at front awaiting an output VC
	vcActive                 // output VC allocated; flits streaming
)

// noSlot marks a linkVC as carrying no message (slot 0 is a valid arena
// index).
const noSlot int32 = -1

// linkVC is the receive-side state of one virtual channel of one physical
// link, owned by the link's sink router.
type linkVC struct {
	buf     *buffer.FIFO
	phase   vcPhase
	outLink topology.LinkID // Invalid means local delivery
	outVC   int
	// rcWait counts remaining route-computation cycles for the header at the
	// front of the buffer (see Params.RouteDelay).
	rcWait int
	// curSlot is the message-arena slot of the message currently traversing
	// this VC (valid while phase is routing/active, noSlot otherwise);
	// recovery uses it to release aborted allocations.
	curSlot int32
	// headSlots queues the arena slots of the header flits resident in buf,
	// in arrival order; the front entry identifies the message whose header
	// routes next. Keeping the slot beside the buffered header replaces the
	// MsgID lookup the routing path would otherwise need. Head-indexed ring,
	// reset when drained, so it never allocates in steady state.
	headSlots []int32
	hsHead    int
}

func (v *linkVC) pushHeadSlot(s int32) { v.headSlots = append(v.headSlots, s) }

func (v *linkVC) popHeadSlot() int32 {
	s := v.headSlots[v.hsHead]
	v.hsHead++
	if v.hsHead == len(v.headSlots) {
		v.headSlots = v.headSlots[:0]
		v.hsHead = 0
	}
	return s
}

// dropHeadSlot removes every pending occurrence of slot s (recovery scrubs
// aborted headers), preserving the order of the rest.
func (v *linkVC) dropHeadSlot(s int32) {
	out := v.headSlots[:v.hsHead]
	for _, hs := range v.headSlots[v.hsHead:] {
		if hs != s {
			out = append(out, hs)
		}
	}
	v.headSlots = out
	if v.hsHead == len(v.headSlots) {
		v.headSlots = v.headSlots[:0]
		v.hsHead = 0
	}
}

// injPort is a node's injection interface: an unbounded source queue of
// messages plus the progress of the message currently being injected. It
// behaves as one more input port of the router with NumVCs virtual queues
// collapsed into one (one flit per cycle may be injected per node). The
// queue holds arena slot indices, not messages, and is a head-indexed ring:
// popping advances head, and the backing array is reused once drained, so
// steady-state injection churn reuses one allocation forever.
type injPort struct {
	queue   []int32
	head    int
	sent    int // flits of the front message already injected
	phase   vcPhase
	outLink topology.LinkID
	outVC   int
	rcWait  int
}

func (p *injPort) qlen() int    { return len(p.queue) - p.head }
func (p *injPort) front() int32 { return p.queue[p.head] }
func (p *injPort) push(s int32) { p.queue = append(p.queue, s) }

func (p *injPort) popFront() {
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
}

// msgSlot is one entry of the in-flight message arena. Recovery bookkeeping
// lives in the slot rather than in side maps so the per-cycle timeout scan
// walks the arena in deterministic slot order instead of map order.
type msgSlot struct {
	msg  flit.Message
	live bool

	// Recovery fields (meaningful only while abort-and-retry is enabled).
	lastProgress int64
	hasProgress  bool
	retries      int
	parked       bool
}

// Engine simulates wormhole switching over an entire network.
type Engine struct {
	topo  topology.Topology
	to    []int32 // topo.Links().To: the router at the sink of each link
	fn    routing.Func
	prm   Params
	hooks Hooks

	// Dense state, indexed by channel = int(link)*NumVCs + vc.
	in      []linkVC
	credits []int // upstream view of downstream buffer space
	// outOwner maps each channel to the global input port currently granted
	// it, or -1. Input ports: [0, numLinkInputs) are link channels (same
	// index space as `in`); [numLinkInputs, +nodes) are injection ports.
	outOwner []int32

	inj []injPort

	// slots is the in-flight message arena: every injected, undelivered
	// message occupies one dense slot whose index flows through injection
	// queues and VC bookkeeping in place of a MsgID-keyed map. freeSlots
	// recycles indices LIFO in delivery order — a canonical order, so slot
	// assignment never depends on hashing.
	slots     []msgSlot
	freeSlots []int32
	liveSlots int

	rr int // rotating arbitration offset

	// Counters for stats.
	FlitsMoved     int64
	FlitsDelivered int64
	MsgsDelivered  int64
	// LinkFlits counts flits traversed per physical link slot (utilization).
	LinkFlits []int64

	// flitProbe, when set (tests only), observes every delivered flit.
	flitProbe func(flit.Flit)

	// creditQueue holds credits in flight back to their upstream routers
	// (only used when CreditDelay > 0); entries are appended in firing-time
	// order, so draining advances creditHead over a prefix and the backing
	// array resets once empty.
	creditQueue []pendingCredit
	creditHead  int

	// recovery is non-nil when abort-and-retry deadlock recovery is enabled.
	recovery *recoveryState
	// now mirrors the cycle passed to Cycle, for recovery bookkeeping.
	now int64

	// Active-set state (see activity.go): the membership bitmap over the
	// global input-port space, its population count, and the dirty lists
	// that replace the full busy-flag clears. trackActivity caches
	// !prm.DisableActivityTracking.
	trackActivity bool
	active        []uint64
	activeCount   int
	dirtyOutLinks []int32
	dirtyInPorts  []int32

	// Scratch reused across cycles.
	cands        []routing.Candidate
	outLinkBusy  []bool
	inPortBusy   []bool
	arrivalsCh   []int32 // channel index receiving a flit this cycle
	arrivalsFlit []flit.Flit
	arrivalsSlot []int32 // arena slot of each arriving flit's message
}

// New constructs an engine for the topology and routing function.
func New(topo topology.Topology, fn routing.Func, prm Params, hooks Hooks) (*Engine, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if fn.NumVCs() != prm.NumVCs {
		return nil, fmt.Errorf("wormhole: routing function uses %d VCs but params say %d", fn.NumVCs(), prm.NumVCs)
	}
	nch := topo.NumLinkSlots() * prm.NumVCs
	e := &Engine{
		topo:        topo,
		to:          topo.Links().To,
		fn:          fn,
		prm:         prm,
		hooks:       hooks,
		in:          make([]linkVC, nch),
		credits:     make([]int, nch),
		outOwner:    make([]int32, nch),
		inj:         make([]injPort, topo.Nodes()),
		outLinkBusy: make([]bool, topo.NumLinkSlots()),
		inPortBusy:  make([]bool, topo.NumLinkSlots()+topo.Nodes()),
		LinkFlits:   make([]int64, topo.NumLinkSlots()),
	}
	e.trackActivity = !prm.DisableActivityTracking
	e.active = make([]uint64, (e.NumPorts()+63)/64)
	for i := range e.in {
		e.in[i].buf = buffer.NewFIFO(prm.BufDepth)
		e.in[i].outLink = topology.Invalid
		e.in[i].curSlot = noSlot
		e.credits[i] = prm.BufDepth
		e.outOwner[i] = -1
	}
	for i := range e.inj {
		e.inj[i].outLink = topology.Invalid
	}
	return e, nil
}

// channel index helpers.
func (e *Engine) ch(link topology.LinkID, vc int) int { return int(link)*e.prm.NumVCs + vc }

// numLinkInputs returns the size of the link-channel input port space.
func (e *Engine) numLinkInputs() int { return len(e.in) }

// NumPorts returns the size of the global input-port space: all link virtual
// channels plus one injection port per node.
func (e *Engine) NumPorts() int { return e.numLinkInputs() + len(e.inj) }

// injInput returns the global input-port index of node n's injection port.
func (e *Engine) injInput(n topology.Node) int32 { return int32(e.numLinkInputs() + int(n)) }

// allocSlot places m in the arena and returns its slot.
func (e *Engine) allocSlot(m flit.Message) int32 {
	var s int32
	if n := len(e.freeSlots); n > 0 {
		s = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		e.slots = append(e.slots, msgSlot{})
		s = int32(len(e.slots) - 1)
	}
	e.slots[s] = msgSlot{msg: m, live: true}
	e.liveSlots++
	return s
}

// freeSlot recycles a delivered message's slot.
func (e *Engine) freeSlot(s int32) {
	e.slots[s] = msgSlot{}
	e.freeSlots = append(e.freeSlots, s)
	e.liveSlots--
}

// Inject queues a message at its source node. The message's InjectTime should
// already be set by the caller.
func (e *Engine) Inject(m flit.Message) {
	if m.Len <= 0 {
		panic("wormhole: injecting empty message")
	}
	s := e.allocSlot(m)
	p := &e.inj[m.Src]
	p.push(s)
	if p.phase == vcIdle {
		p.phase = vcRouting
		p.rcWait = e.prm.RouteDelay
		e.activate(int(e.injInput(topology.Node(m.Src))))
	}
}

// InFlight returns the number of messages injected but not yet delivered.
func (e *Engine) InFlight() int { return e.liveSlots }

// OldestAge returns the age of the oldest in-flight message.
func (e *Engine) OldestAge(now int64) int64 {
	var oldest int64
	for i := range e.slots {
		if !e.slots[i].live {
			continue
		}
		if age := now - e.slots[i].msg.InjectTime; age > oldest {
			oldest = age
		}
	}
	return oldest
}

// QueueLen returns the source-queue length at node n (including the message
// currently being injected).
func (e *Engine) QueueLen(n topology.Node) int { return e.inj[n].qlen() }

// Cycle advances the whole wormhole network by one clock.
func (e *Engine) Cycle(now int64) {
	e.now = now
	e.stepRecovery(now)
	e.drainCredits(now)
	e.allocate(now)
	e.switchAndTraverse(now)
	e.commitArrivals()
	e.rr++
}

// returnCredit gives one buffer slot back to the channel's upstream router,
// either immediately or after the configured credit-path delay.
func (e *Engine) returnCredit(ch int32, now int64) {
	if e.prm.CreditDelay == 0 {
		e.credits[ch]++
		return
	}
	e.creditQueue = append(e.creditQueue, pendingCredit{ch: ch, at: now + int64(e.prm.CreditDelay)})
}

// drainCredits applies every credit whose travel time has elapsed.
func (e *Engine) drainCredits(now int64) {
	i := e.creditHead
	for ; i < len(e.creditQueue) && e.creditQueue[i].at <= now; i++ {
		e.credits[e.creditQueue[i].ch]++
	}
	e.creditHead = i
	if e.creditHead == len(e.creditQueue) {
		e.creditQueue = e.creditQueue[:0]
		e.creditHead = 0
	}
}

// allocate runs route computation + VC allocation for every input holding a
// header. Ports are visited in rotating order; allocation is greedy and
// sequential, which is deterministic and fair over time. With activity
// tracking the scan iterates only the active set — the same rotating order
// with the idle ports (which the full scan would dismiss without side
// effects) skipped.
func (e *Engine) allocate(now int64) {
	total := e.numLinkInputs() + len(e.inj)
	if e.trackActivity {
		// Rotated word scan over the active set, inlined (no per-port
		// function-value dispatch): segment [start, total) then [0, start),
		// peeling set bits with TrailingZeros64. Allocation changes port
		// phases but never active-set membership (vcRouting and vcActive are
		// both active), so the copied-word iteration is exact.
		start := e.rr % total
		from, to := start, total
		for seg := 0; seg < 2; seg++ {
			if from < to {
				firstW, lastW := from>>6, (to-1)>>6
				for w := firstW; w <= lastW; w++ {
					word := e.active[w]
					if w == firstW {
						word &= ^uint64(0) << uint(from&63)
					}
					if w == lastW && to&63 != 0 {
						word &= 1<<uint(to&63) - 1
					}
					for word != 0 {
						e.allocatePort(w<<6 + mathbits.TrailingZeros64(word))
						word &= word - 1
					}
				}
			}
			from, to = 0, start
		}
		return
	}
	for i := 0; i < total; i++ {
		e.allocatePort((i + e.rr) % total)
	}
}

// allocatePort dispatches one port of the allocation pass.
func (e *Engine) allocatePort(port int) {
	if port < e.numLinkInputs() {
		e.allocateLinkVC(int32(port))
	} else {
		e.allocateInjection(topology.Node(port - e.numLinkInputs()))
	}
}

// claimOutput resolves routing for a header at `here` and claims an output
// channel. Returns (outLink, outVC, ok).
func (e *Engine) claimOutput(here topology.Node, dst int, inLink topology.LinkID, inVC int, owner int32) (topology.LinkID, int, bool) {
	e.cands = e.fn.Candidates(here, topology.Node(dst), inLink, inVC, e.cands[:0])
	for _, c := range e.cands {
		idx := e.ch(c.Link, c.VC)
		if e.outOwner[idx] == -1 {
			e.outOwner[idx] = owner
			return c.Link, c.VC, true
		}
	}
	return topology.Invalid, 0, false
}

func (e *Engine) allocateLinkVC(port int32) {
	v := &e.in[port]
	if v.phase != vcRouting {
		return
	}
	head, ok := v.buf.Front()
	if !ok {
		return // header not yet arrived
	}
	if !head.Kind.IsHead() {
		panic(fmt.Sprintf("wormhole: routing phase with non-head flit %v at front", head.Kind))
	}
	if v.rcWait > 0 {
		v.rcWait--
		return
	}
	link := topology.LinkID(int(port) / e.prm.NumVCs)
	inVC := int(port) % e.prm.NumVCs
	here := topology.Node(e.to[link])
	if here < 0 {
		panic("wormhole: flit on non-existent link")
	}
	if int(here) == head.Dst {
		v.phase = vcActive
		v.outLink = topology.Invalid // deliver locally
		v.curSlot = v.popHeadSlot()
		return
	}
	if outLink, outVC, claimed := e.claimOutput(here, head.Dst, link, inVC, port); claimed {
		v.phase = vcActive
		v.outLink = outLink
		v.outVC = outVC
		v.curSlot = v.popHeadSlot()
	}
}

func (e *Engine) allocateInjection(n topology.Node) {
	p := &e.inj[n]
	if p.phase != vcRouting || p.qlen() == 0 {
		return
	}
	if p.rcWait > 0 {
		p.rcWait--
		return
	}
	m := e.slots[p.front()].msg
	if m.Dst == int(n) {
		p.phase = vcActive
		p.outLink = topology.Invalid // self-send delivers locally
		return
	}
	if outLink, outVC, claimed := e.claimOutput(n, m.Dst, topology.Invalid, 0, e.injInput(n)); claimed {
		p.phase = vcActive
		p.outLink = outLink
		p.outVC = outVC
	}
}

// switchAndTraverse runs switch allocation and link traversal: at most one
// flit crosses each output physical link and leaves each input port per
// cycle, subject to downstream credits.
func (e *Engine) switchAndTraverse(now int64) {
	e.clearBusy()
	e.arrivalsCh = e.arrivalsCh[:0]
	e.arrivalsFlit = e.arrivalsFlit[:0]
	e.arrivalsSlot = e.arrivalsSlot[:0]

	total := e.numLinkInputs() + len(e.inj)
	if e.trackActivity {
		// Traversal can deactivate only the port it is visiting (a tail flit
		// leaving resets that port alone), and the scan has already copied
		// that port's bitmap word, so mutating the active set mid-scan is
		// safe: no other port's membership changes under the iteration.
		// Inlined rotated word scan, as in allocate.
		start := e.rr % total
		from, to := start, total
		for seg := 0; seg < 2; seg++ {
			if from < to {
				firstW, lastW := from>>6, (to-1)>>6
				for w := firstW; w <= lastW; w++ {
					word := e.active[w]
					if w == firstW {
						word &= ^uint64(0) << uint(from&63)
					}
					if w == lastW && to&63 != 0 {
						word &= 1<<uint(to&63) - 1
					}
					for word != 0 {
						e.traversePort(w<<6+mathbits.TrailingZeros64(word), now)
						word &= word - 1
					}
				}
			}
			from, to = 0, start
		}
		return
	}
	for i := 0; i < total; i++ {
		e.traversePort((i+e.rr)%total, now)
	}
}

// traversePort dispatches one port of the traversal pass.
func (e *Engine) traversePort(port int, now int64) {
	if port < e.numLinkInputs() {
		e.traverseLinkVC(int32(port), now)
	} else {
		e.traverseInjection(topology.Node(port-e.numLinkInputs()), now)
	}
}

// sendFlit tries to move fl (of the message in arena slot `slot`) from input
// port `port` to (outLink, outVC); it returns false if the physical link,
// input port or credits forbid it.
func (e *Engine) sendFlit(port int32, fl flit.Flit, slot int32, outLink topology.LinkID, outVC int) bool {
	if e.inPortBusy[e.inPortIndex(port)] {
		return false
	}
	if e.outLinkBusy[outLink] {
		return false
	}
	idx := e.ch(outLink, outVC)
	if e.credits[idx] == 0 {
		return false
	}
	e.credits[idx]--
	e.markOutBusy(int(outLink))
	e.markInBusy(e.inPortIndex(port))
	e.arrivalsCh = append(e.arrivalsCh, int32(idx))
	e.arrivalsFlit = append(e.arrivalsFlit, fl)
	e.arrivalsSlot = append(e.arrivalsSlot, slot)
	e.FlitsMoved++
	e.LinkFlits[outLink]++
	e.noteProgress(slot, e.now)
	if e.hooks.Progress != nil {
		e.hooks.Progress()
	}
	return true
}

// inPortIndex maps a global input port to its physical-port slot: all VCs of
// one link share one physical input port; each node's injection port is its
// own.
func (e *Engine) inPortIndex(port int32) int {
	if int(port) < e.numLinkInputs() {
		return int(port) / e.prm.NumVCs
	}
	return e.topo.NumLinkSlots() + (int(port) - e.numLinkInputs())
}

func (e *Engine) traverseLinkVC(port int32, now int64) {
	v := &e.in[port]
	if v.phase != vcActive || v.buf.Empty() {
		return
	}
	if e.inPortBusy[e.inPortIndex(port)] {
		return
	}
	fl, _ := v.buf.Front()
	if v.outLink == topology.Invalid {
		// Local delivery consumes one flit per input port per cycle.
		v.buf.Pop()
		e.returnCredit(port, now)
		e.markInBusy(e.inPortIndex(port))
		e.deliverFlit(fl, v.curSlot, now)
		e.afterFlitLeft(port, v, fl)
		return
	}
	if e.sendFlit(port, fl, v.curSlot, v.outLink, v.outVC) {
		v.buf.Pop()
		e.returnCredit(port, now)
		e.afterFlitLeft(port, v, fl)
	}
}

// afterFlitLeft updates VC bookkeeping once a flit has left input VC `port`.
func (e *Engine) afterFlitLeft(port int32, v *linkVC, fl flit.Flit) {
	if !fl.Kind.IsTail() {
		return
	}
	// Tail gone: release the output VC and recycle this input VC.
	if v.outLink != topology.Invalid {
		e.outOwner[e.ch(v.outLink, v.outVC)] = -1
	}
	v.outLink = topology.Invalid
	v.outVC = 0
	v.curSlot = noSlot
	if v.buf.Empty() {
		v.phase = vcIdle
		e.deactivate(int(port))
	} else {
		v.phase = vcRouting // next message's header is already queued
		v.rcWait = e.prm.RouteDelay
	}
}

func (e *Engine) traverseInjection(n topology.Node, now int64) {
	p := &e.inj[n]
	if p.phase != vcActive || p.qlen() == 0 {
		return
	}
	slot := p.front()
	m := e.slots[slot].msg
	fl := m.FlitAt(p.sent)
	port := e.injInput(n)
	if p.outLink == topology.Invalid {
		// Self-send: deliver directly.
		if e.inPortBusy[e.inPortIndex(port)] {
			return
		}
		e.markInBusy(e.inPortIndex(port))
		p.sent++
		e.deliverFlit(fl, slot, now)
		if e.hooks.Progress != nil {
			e.hooks.Progress()
		}
		e.FlitsMoved++
		e.afterInjectionFlit(port, p, fl)
		return
	}
	if e.sendFlit(port, fl, slot, p.outLink, p.outVC) {
		p.sent++
		e.afterInjectionFlit(port, p, fl)
	}
}

func (e *Engine) afterInjectionFlit(port int32, p *injPort, fl flit.Flit) {
	if !fl.Kind.IsTail() {
		return
	}
	if p.outLink != topology.Invalid {
		e.outOwner[e.ch(p.outLink, p.outVC)] = -1
	}
	p.popFront()
	p.sent = 0
	p.outLink = topology.Invalid
	p.outVC = 0
	if p.qlen() == 0 {
		p.phase = vcIdle
		e.deactivate(int(port))
	} else {
		p.phase = vcRouting
		p.rcWait = e.prm.RouteDelay
	}
}

// deliverFlit consumes a flit at its destination. `slot` is the arena slot of
// the flit's message (known to the caller from its VC or injection state, so
// no lookup is needed).
func (e *Engine) deliverFlit(fl flit.Flit, slot int32, now int64) {
	e.FlitsDelivered++
	if e.flitProbe != nil {
		e.flitProbe(fl)
	}
	if !fl.Kind.IsTail() {
		return
	}
	sl := &e.slots[slot]
	if !sl.live || sl.msg.ID != fl.Msg {
		panic(fmt.Sprintf("wormhole: delivered unknown message %d", fl.Msg))
	}
	m := sl.msg
	e.freeSlot(slot)
	e.MsgsDelivered++
	if e.hooks.Delivered != nil {
		e.hooks.Delivered(m, now)
	}
}

// commitArrivals pushes this cycle's traversing flits into their downstream
// buffers; doing it after all movement decisions models the one-cycle link
// delay (a flit cannot cross two links in one cycle).
func (e *Engine) commitArrivals() {
	for i, ch := range e.arrivalsCh {
		fl := e.arrivalsFlit[i]
		if !e.in[ch].buf.Push(fl) {
			panic("wormhole: buffer overflow despite credit check")
		}
		if fl.Kind.IsHead() {
			e.in[ch].pushHeadSlot(e.arrivalsSlot[i])
		}
		if e.in[ch].phase == vcIdle {
			e.in[ch].phase = vcRouting
			e.in[ch].rcWait = e.prm.RouteDelay
			e.activate(int(ch))
		}
	}
}

// Quiesce reports whether the engine holds no work at all (used by drain
// loops in tests and experiments).
func (e *Engine) Quiesce() bool { return e.liveSlots == 0 }

// DebugDump prints internal engine state for stuck-network diagnosis. It is
// test-only scaffolding.
func (e *Engine) DebugDump() {
	fmt.Println("=== wormhole debug dump ===")
	for s := range e.slots {
		if !e.slots[s].live {
			continue
		}
		m := e.slots[s].msg
		fmt.Printf("in-flight msg %d (slot %d): src=%d dst=%d len=%d\n", m.ID, s, m.Src, m.Dst, m.Len)
	}
	for i := range e.in {
		v := &e.in[i]
		if v.phase == vcIdle && v.buf.Empty() {
			continue
		}
		link := topology.LinkID(i / e.prm.NumVCs)
		vc := i % e.prm.NumVCs
		l, _ := e.topo.LinkByID(link)
		front, ok := v.buf.Front()
		fmt.Printf("linkVC link=%d(%d->%d) vc=%d phase=%d buflen=%d front=%+v(%v) out=(%d,%d)\n",
			link, l.From, l.To, vc, v.phase, v.buf.Len(), front, ok, v.outLink, v.outVC)
		if v.outLink != topology.Invalid {
			fmt.Printf("  outOwner=%d credits=%d\n", e.outOwner[e.ch(v.outLink, v.outVC)], e.credits[e.ch(v.outLink, v.outVC)])
		}
	}
	for n := range e.inj {
		p := &e.inj[n]
		if p.phase == vcIdle && p.qlen() == 0 {
			continue
		}
		fmt.Printf("inj node=%d phase=%d queue=%d sent=%d out=(%d,%d)\n", n, p.phase, p.qlen(), p.sent, p.outLink, p.outVC)
		if p.outLink != topology.Invalid {
			fmt.Printf("  outOwner=%d credits=%d\n", e.outOwner[e.ch(p.outLink, p.outVC)], e.credits[e.ch(p.outLink, p.outVC)])
		}
	}
	for ch, owner := range e.outOwner {
		if owner != -1 {
			link := topology.LinkID(ch / e.prm.NumVCs)
			l, _ := e.topo.LinkByID(link)
			fmt.Printf("outOwner ch=%d link=%d(%d->%d) vc=%d owner=%d credits=%d\n", ch, link, l.From, l.To, ch%e.prm.NumVCs, owner, e.credits[ch])
		}
	}
}
