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
// injection queues and the credit pipe are head-indexed queues compacted in
// place, and per-cycle scratch slices are length-reset.
//
// Simplifications relative to hardware, documented per DESIGN.md: by
// default credits return instantaneously (a zero-cycle credit path;
// Params.CreditDelay models a slower one), and injection queues are
// unbounded source queues (latency is measured from injection time, so
// source queueing is visible in the numbers, not hidden).
package wormhole

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/sim"
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

// flitRef is one buffered flit: the arena slot of its message, its position
// in the message and its kind. The full flit.Flit is materialised from the
// slot's message only for snapshots and the test probe.
type flitRef struct {
	slot int32
	seq  int32
	kind flit.Kind
}

// Every per-channel and per-port register is stored so that its zero value
// is its reset state, and New writes none of them: a field whose name ends
// in 1 holds an index plus one (0: none), and an output channel counts the
// credits it has spent rather than those it holds. Check, the snapshot
// format and every message read the logical values.

// linkVC is the receive-side state of one virtual channel of one physical
// link, owned by the link's sink router. Its flits live in the engine's
// ring region ring[port*BufDepth:][:BufDepth], `count` of them starting at
// `head`.
type linkVC struct {
	phase       vcPhase
	head, count int32
	// rcWait counts remaining route-computation cycles for the header at the
	// front of the buffer (see Params.RouteDelay).
	rcWait int32
	// inLink is the link this VC belongs to, and so the index of its
	// physical input port. It is set where the VC leaves idle and read only
	// while it is not idle.
	inLink int32
	// outCh1 is the allocated output channel index plus one
	// (outLink*NumVCs + outVC + 1), 0 for none or local delivery; outLink
	// is its link, meaningful only while outCh1 is not 0.
	outLink, outCh1 int32
	// curSlot1 is the message-arena slot plus one of the message currently
	// traversing this VC (set while phase is active, 0 otherwise); recovery
	// uses it to release aborted allocations.
	curSlot1 int32
}

// outChan is the upstream view of one output channel: the global input port
// granted it plus one (0 while free) and the credits spent, which are the
// flits the downstream buffer holds plus the credits travelling back, so
// BufDepth - spent credits remain. Input ports: [0, numLinkInputs) are link
// channels (same index space as `in`); [numLinkInputs, +nodes) are
// injection ports.
type outChan struct {
	owner1, spent int32
}

// owner returns the input port granted the channel, -1 while free.
func (o *outChan) owner() int32 { return o.owner1 - 1 }

// credits returns the free buffer space downstream of output channel ch.
func (e *Engine) credits(ch int) int32 { return e.depth - e.out[ch].spent }

// arrival is one flit crossing a link this cycle, committed to channel ch's
// buffer after the traversal pass.
type arrival struct {
	ch  int32
	ref flitRef
}

// injPort is a node's injection interface: an unbounded source queue of
// messages plus the progress of the message currently being injected. It
// behaves as one more input port of the router with NumVCs virtual queues
// collapsed into one (one flit per cycle may be injected per node). The
// queue holds arena slot indices, not messages, and is head-indexed: popping
// advances head, and sim.Compact keeps the backing array proportional to the
// queued messages, so steady-state injection churn reuses one allocation.
type injPort struct {
	queue []int32
	head  int
	sent  int // flits of the front message already injected
	// frontLen is the front message's length while the port is active, so
	// traversal loads no slot per flit (derived; State recomputes it).
	frontLen int
	phase    vcPhase
	// outLink and outCh1 are the allocated output, as in linkVC.
	outLink, outCh1 int32
	rcWait          int
}

func (p *injPort) qlen() int    { return len(p.queue) - p.head }
func (p *injPort) front() int32 { return p.queue[p.head] }
func (p *injPort) push(s int32) { p.queue = append(p.queue, s) }

func (p *injPort) popFront() {
	p.queue, p.head = sim.Compact(p.queue, p.head+1)
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

	// Dense state, indexed by channel = link*NumVCs + vc. ring holds every
	// VC's BufDepth-entry flit region back to back.
	in    []linkVC
	ring  []flitRef
	out   []outChan
	depth int32 // BufDepth
	nvc   int32 // NumVCs

	inj      []injPort
	numLinks int // topo.NumLinkSlots(): injection ports' physical ports follow

	// slots is the in-flight message arena: every injected, undelivered
	// message occupies one dense slot whose index flows through injection
	// queues and VC bookkeeping in place of a MsgID-keyed map. freeSlots
	// recycles indices LIFO in delivery order — a canonical order, so slot
	// assignment never depends on hashing.
	slots     []msgSlot
	freeSlots []int32
	liveSlots int

	rr    int // rotating arbitration offset
	start int // rr modulo NumPorts, where the passes begin (derived)

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
	// order, so draining advances creditHead over a prefix, and sim.Compact
	// bounds the backing array by the credits in flight.
	creditQueue []pendingCredit
	creditHead  int

	// recovery is non-nil when abort-and-retry deadlock recovery is enabled.
	recovery *recoveryState
	// now mirrors the cycle passed to Cycle, for recovery bookkeeping.
	now int64

	// Active-set state (see activity.go): two-level membership sets over
	// the global input-port space for the routing and the streaming ports.
	routing, active portSet

	// Scratch reused across cycles; the busy flags are pass stamps (see
	// activity.go).
	cands       []routing.Candidate
	pass        uint32
	outLinkBusy []uint32
	inPortBusy  []uint32
	arrivals    []arrival
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
		ring:        make([]flitRef, nch*prm.BufDepth),
		out:         make([]outChan, nch),
		depth:       int32(prm.BufDepth),
		nvc:         int32(prm.NumVCs),
		inj:         make([]injPort, topo.Nodes()),
		numLinks:    topo.NumLinkSlots(),
		outLinkBusy: make([]uint32, topo.NumLinkSlots()),
		inPortBusy:  make([]uint32, topo.NumLinkSlots()+topo.Nodes()),
		LinkFlits:   make([]int64, topo.NumLinkSlots()),
	}
	e.routing = newPortSet(e.NumPorts())
	e.active = newPortSet(e.NumPorts())
	return e, nil
}

// numLinkInputs returns the size of the link-channel input port space.
func (e *Engine) numLinkInputs() int { return len(e.in) }

// NumPorts returns the size of the global input-port space: all link virtual
// channels plus one injection port per node.
func (e *Engine) NumPorts() int { return e.numLinkInputs() + len(e.inj) }

// injInput returns the global input-port index of node n's injection port.
func (e *Engine) injInput(n topology.Node) int32 { return int32(e.numLinkInputs() + int(n)) }

// ringAt returns the ring index of the i-th buffered flit of VC port.
func (e *Engine) ringAt(port int32, i int32) int {
	j := e.in[port].head + i
	if j >= e.depth {
		j -= e.depth
	}
	return int(port*e.depth + j)
}

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
	e.queueAtSource(e.allocSlot(m))
}

// queueAtSource appends slot s to its source's injection queue, waking the
// port if it was idle.
func (e *Engine) queueAtSource(s int32) {
	src := e.slots[s].msg.Src
	p := &e.inj[src]
	p.push(s)
	if p.phase == vcIdle {
		e.setPhase(int(e.injInput(topology.Node(src))), &p.phase, vcRouting)
		p.rcWait = e.prm.RouteDelay
	}
}

// InFlight returns the number of messages injected but not yet delivered.
func (e *Engine) InFlight() int { return e.liveSlots }

// QueueLen returns the source-queue length at node n (including the message
// currently being injected).
func (e *Engine) QueueLen(n topology.Node) int { return e.inj[n].qlen() }

// Cycle advances the whole wormhole network by one clock. Route computation
// and VC allocation visit only the ports holding a header that waits for an
// output; switch allocation and traversal visit only the streaming ports.
// It reports whether work moved: a flit, or a recovery abort, which frees
// the channels a deadlock held.
func (e *Engine) Cycle(now int64) bool {
	e.now = now
	moved := e.FlitsMoved
	aborted := e.stepRecovery(now)
	e.drainCredits(now)
	e.allocatePass()
	e.nextPass()
	e.traversePass(now)
	e.commitArrivals()
	e.advanceRotation()
	return aborted || e.FlitsMoved != moved
}

// drainCredits applies every credit whose travel time has elapsed.
func (e *Engine) drainCredits(now int64) {
	i := e.creditHead
	for ; i < len(e.creditQueue) && e.creditQueue[i].at <= now; i++ {
		e.out[e.creditQueue[i].ch].spent--
	}
	e.creditQueue, e.creditHead = sim.Compact(e.creditQueue, i)
}

// allocatePass runs route computation and VC allocation over the ports in
// rotating order from rr: greedy and sequential, so deterministic and fair
// over time. It walks only the routing set, [start, total) then
// [0, start), in rotating port order (see activity.go), and returns at
// once when the set is empty. A summary word and a port word are each
// copied before their bits are peeled, and a visit moves only the visited
// port, and only out of the set, so the set may change under the walk.
func (e *Engine) allocatePass() {
	nl, total := e.numLinkInputs(), e.NumPorts()
	s := &e.routing
	if s.n == 0 {
		return
	}
	for from, to := e.start, total; ; from, to = 0, e.start {
		wFrom, wTo := from>>6, (to-1)>>6+1
		for sw := wFrom >> 6; sw <= (wTo-1)>>6; sw++ {
			for sum := segWord(s.sum, sw, wFrom, wTo); sum != 0; sum &= sum - 1 {
				w := sw<<6 + mathbits.TrailingZeros64(sum)
				for word := segWord(s.words, w, from, to); word != 0; word &= word - 1 {
					if port := w<<6 + mathbits.TrailingZeros64(word); port < nl {
						e.allocateLinkVC(int32(port))
					} else {
						e.allocateInjection(topology.Node(port - nl))
					}
				}
			}
		}
		if from == 0 {
			return
		}
	}
}

// traversePass runs switch allocation and link traversal in the same order,
// walking only the active set (a visit moves its port out of the set or
// into the routing set, and a delivery hook that injects wakes an injection
// port into the routing set, which this pass does not walk).
//
// Each visit is one send block for both port kinds, over locals loaded once
// per pass: read the port's front flit and held output, then claim the
// physical input port, the output link and one credit, queue the arrival,
// and advance the port — a link VC pops its ring and returns the credit
// for the slot it freed, an injection port counts the flit sent. A port
// with no output held delivers locally instead, which claims only the
// input port. The walk re-tests no phase: Check's port-set clause holds
// active membership to vcActive, and an active injection port to a
// non-empty queue.
func (e *Engine) traversePass(now int64) {
	nl, total := e.numLinkInputs(), e.NumPorts()
	s := &e.active
	if s.n == 0 {
		return
	}
	in, inj, ring, out := e.in, e.inj, e.ring, e.out
	outLinkBusy, inPortBusy := e.outLinkBusy, e.inPortBusy
	depth, pass, nl32, numLinks := e.depth, e.pass, int32(nl), int32(e.numLinks)
	creditDelay := int64(e.prm.CreditDelay)
	for from, to := e.start, total; ; from, to = 0, e.start {
		wFrom, wTo := from>>6, (to-1)>>6+1
		for sw := wFrom >> 6; sw <= (wTo-1)>>6; sw++ {
			for sum := segWord(s.sum, sw, wFrom, wTo); sum != 0; sum &= sum - 1 {
				w := sw<<6 + mathbits.TrailingZeros64(sum)
				for word := segWord(s.words, w, from, to); word != 0; word &= word - 1 {
					port := int32(w<<6 + mathbits.TrailingZeros64(word))
					var v *linkVC
					var p *injPort
					var inPort, outLink, outCh1 int32
					var ref flitRef
					if port < nl32 {
						v = &in[port]
						if v.count == 0 {
							continue
						}
						inPort, outLink, outCh1 = v.inLink, v.outLink, v.outCh1
						ref = ring[port*depth+v.head]
					} else {
						p = &inj[port-nl32]
						inPort, outLink, outCh1 = numLinks+port-nl32, p.outLink, p.outCh1
						ref = flitRef{slot: p.front(), seq: int32(p.sent), kind: flit.KindOf(p.sent, p.frontLen)}
					}
					if inPortBusy[inPort] == pass {
						continue
					}
					if outCh1 != 0 {
						o := &out[outCh1-1]
						if outLinkBusy[outLink] == pass || o.spent == depth {
							continue
						}
						o.spent++
						outLinkBusy[outLink] = pass
						e.arrivals = append(e.arrivals, arrival{ch: outCh1 - 1, ref: ref})
						e.FlitsMoved++
						e.LinkFlits[outLink]++
						e.noteProgress(ref.slot, now)
					}
					// Local delivery too consumes one flit per input port per cycle.
					inPortBusy[inPort] = pass
					if v != nil {
						if v.head++; v.head == depth {
							v.head = 0
						}
						v.count--
						if creditDelay == 0 {
							out[port].spent--
						} else {
							e.creditQueue = append(e.creditQueue, pendingCredit{ch: port, at: now + creditDelay})
						}
						if outCh1 == 0 {
							e.deliverFlit(ref, now)
						}
						if ref.kind.IsTail() {
							e.retireVC(port, v)
						}
						continue
					}
					p.sent++
					if outCh1 == 0 {
						e.deliverFlit(ref, now)
						e.FlitsMoved++ // a self-send counts as moved; a link VC's local delivery does not
					}
					if ref.kind.IsTail() {
						e.retireFront(topology.Node(port-nl32), p)
					}
				}
			}
		}
		if from == 0 {
			return
		}
	}
}

// claimOutput resolves routing for a header at `here` and claims an output
// channel for input port owner. Returns (outLink, outCh1, ok).
func (e *Engine) claimOutput(here topology.Node, dst int, inLink topology.LinkID, inVC int, owner int32) (int32, int32, bool) {
	e.cands = e.fn.Candidates(here, topology.Node(dst), inLink, inVC, e.cands[:0])
	for _, c := range e.cands {
		idx := int32(c.Link)*e.nvc + int32(c.VC)
		if o := &e.out[idx]; o.owner1 == 0 {
			o.owner1 = owner + 1
			return int32(c.Link), idx + 1, true
		}
	}
	return 0, 0, false
}

func (e *Engine) allocateLinkVC(port int32) {
	v := &e.in[port]
	if v.phase != vcRouting || v.count == 0 {
		return // header not yet arrived
	}
	head := e.ring[port*e.depth+v.head]
	if !head.kind.IsHead() {
		panic(fmt.Sprintf("wormhole: routing phase with non-head flit %v at front", head.kind))
	}
	if v.rcWait > 0 {
		v.rcWait--
		return
	}
	here := topology.Node(e.to[v.inLink])
	if here < 0 {
		panic("wormhole: flit on non-existent link")
	}
	dst := e.slots[head.slot].msg.Dst
	if int(here) == dst {
		e.setPhase(int(port), &v.phase, vcActive) // deliver locally: outCh1 stays 0
		v.curSlot1 = head.slot + 1
		return
	}
	inVC := int(port - v.inLink*e.nvc)
	if outLink, outCh1, claimed := e.claimOutput(here, dst, topology.LinkID(v.inLink), inVC, port); claimed {
		e.setPhase(int(port), &v.phase, vcActive)
		v.outLink, v.outCh1 = outLink, outCh1
		v.curSlot1 = head.slot + 1
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
	m := &e.slots[p.front()].msg
	port := e.injInput(n)
	p.frontLen = m.Len
	if m.Dst == int(n) {
		e.setPhase(int(port), &p.phase, vcActive) // self-send delivers locally: outCh1 stays 0
		return
	}
	if outLink, outCh1, claimed := e.claimOutput(n, m.Dst, topology.Invalid, 0, port); claimed {
		e.setPhase(int(port), &p.phase, vcActive)
		p.outLink, p.outCh1 = outLink, outCh1
	}
}

// retireVC ends the message VC port was carrying once its tail has left (or
// recovery aborted it): the output channel is released and the VC routes
// the next buffered header, or goes idle.
func (e *Engine) retireVC(port int32, v *linkVC) {
	if v.outCh1 != 0 {
		e.out[v.outCh1-1].owner1 = 0
	}
	v.outCh1, v.curSlot1 = 0, 0
	if v.count == 0 {
		e.setPhase(int(port), &v.phase, vcIdle)
	} else {
		e.setPhase(int(port), &v.phase, vcRouting) // next message's header is already queued
		v.rcWait = int32(e.prm.RouteDelay)
	}
}

// retireFront ends the front message of node n's injection port once its
// tail has left (or recovery aborted it): the output channel is released
// and the port routes the next queued message, or goes idle.
func (e *Engine) retireFront(n topology.Node, p *injPort) {
	if p.outCh1 != 0 {
		e.out[p.outCh1-1].owner1 = 0
	}
	p.popFront()
	p.sent = 0
	p.outCh1 = 0
	if p.qlen() == 0 {
		e.setPhase(int(e.injInput(n)), &p.phase, vcIdle)
	} else {
		e.setPhase(int(e.injInput(n)), &p.phase, vcRouting)
		p.rcWait = e.prm.RouteDelay
	}
}

// deliverFlit consumes a flit at its destination.
func (e *Engine) deliverFlit(ref flitRef, now int64) {
	e.FlitsDelivered++
	if e.flitProbe != nil {
		e.flitProbe(e.slots[ref.slot].msg.FlitAt(int(ref.seq)))
	}
	if !ref.kind.IsTail() {
		return
	}
	sl := &e.slots[ref.slot]
	if !sl.live {
		panic(fmt.Sprintf("wormhole: delivered a flit of free slot %d", ref.slot))
	}
	m := sl.msg
	e.freeSlot(ref.slot)
	e.MsgsDelivered++
	if e.hooks.Delivered != nil {
		e.hooks.Delivered(m, now)
	}
}

// commitArrivals pushes this cycle's traversing flits into their downstream
// buffers; doing it after all movement decisions models the one-cycle link
// delay (a flit cannot cross two links in one cycle).
func (e *Engine) commitArrivals() {
	in, ring, depth, nvc := e.in, e.ring, e.depth, e.nvc
	for _, a := range e.arrivals {
		v := &in[a.ch]
		if v.count == depth {
			panic("wormhole: buffer overflow despite credit check")
		}
		j := v.head + v.count
		if j >= depth {
			j -= depth
		}
		ring[a.ch*depth+j] = a.ref
		v.count++
		if v.phase == vcIdle {
			e.setPhase(int(a.ch), &v.phase, vcRouting)
			v.rcWait = int32(e.prm.RouteDelay)
			v.inLink = a.ch / nvc
		}
	}
}

// Quiesce reports whether the engine holds no work at all (the drain
// condition of the package's standalone-engine tests).
func (e *Engine) Quiesce() bool { return e.liveSlots == 0 }
