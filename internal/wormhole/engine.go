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
// a VC buffers message runs (its front message and the slots queued behind
// it) rather than a record per flit, a sent flit is committed downstream
// within the traversal pass, and injection queues and the credit pipe are
// head-indexed queues compacted in place.
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

// flitRef names one buffered flit: the arena slot of its message and its
// position in the message. A buffer stores message runs, not flitRefs;
// vcFlits expands one into them for the snapshot encoder and tests, and a
// flit's kind follows from its position and its message's length.
type flitRef struct {
	slot, seq int32
}

// Every per-channel and per-port register is stored so that its zero value
// is its reset state, and New writes none of them: a field whose name ends
// in 1 holds an index plus one (0: none), and a channel counts the credits
// its sender has spent rather than those it holds. Check, the snapshot
// format and every message read the logical values.

// channel is one virtual channel of one physical link, indexed by
// link*NumVCs + vc: the receive side, which the link's sink router owns
// (the input VC's buffer, phase and output allocation), and the send side,
// which the link's source router owns (the input port granted the channel
// and the credits it has spent). A send touches the sending VC's record
// and the record of the channel it sends into, and nothing else per flit.
//
// The buffer holds runs of messages, not a record per flit. A message's
// flits enter a VC in order, head first, and only the channel's owner
// sends into it, one message at a time until its tail. So the buffer holds
// the rest of the front message, then whole messages, the last of which
// may still be arriving: the front's next flit is (front1-1, seq), and the
// qn messages queued behind it are msgq[ch*BufDepth:][:qn], in arrival
// order.
type channel struct {
	phase vcPhase
	// front1 is the arena slot plus one of the message at the front of
	// the buffer (0: none), seq the sequence number of its next flit to
	// leave — the front flit, or while the buffer is empty the next to
	// arrive — and flen its length. A streaming VC fronts the message it
	// streams.
	front1, seq, flen int32
	// count is the flits buffered and qn the messages queued behind the
	// front.
	count, qn int32
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
	// owner1 is the global input port granted this channel plus one (0
	// while free), and spent the credits spent on it: the flits the buffer
	// holds plus the credits travelling back, so BufDepth - spent remain.
	// Input ports: [0, numLinkInputs) are link channels; [numLinkInputs,
	// +nodes) are injection ports.
	owner1, spent int32
	// arrived is the traversal pass in which a flit last arrived. A flit
	// is committed to the buffer the moment it is sent, and one that
	// arrived this pass may not leave in it (a flit crosses one link per
	// cycle); only the owner sends into a channel, one flit per pass, so
	// at most the newest buffered flit is held back.
	arrived uint32
}

// owner returns the input port granted the channel, -1 while free.
func (c *channel) owner() int32 { return c.owner1 - 1 }

// credits returns the free buffer space downstream of output channel ch.
func (e *Engine) credits(ch int) int32 { return e.depth - e.chans[ch].spent }

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
	// outLink and outCh1 are the allocated output, as in channel.
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

	// Dense state, indexed by channel = link*NumVCs + vc. msgq holds every
	// VC's BufDepth-entry region of queued message slots back to back.
	chans []channel
	msgq  []int32
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
		chans:       make([]channel, nch),
		msgq:        make([]int32, nch*prm.BufDepth),
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
func (e *Engine) numLinkInputs() int { return len(e.chans) }

// NumPorts returns the size of the global input-port space: all link virtual
// channels plus one injection port per node.
func (e *Engine) NumPorts() int { return e.numLinkInputs() + len(e.inj) }

// injInput returns the global input-port index of node n's injection port.
func (e *Engine) injInput(n topology.Node) int32 { return int32(e.numLinkInputs() + int(n)) }

// msgLen returns the length of the message in arena slot s, 0 for a slot
// past the arena (vcFlits reads queued slots that Check has not judged).
func (e *Engine) msgLen(s int32) int32 {
	if s < 0 || int(s) >= len(e.slots) {
		return 0
	}
	return int32(e.slots[s].msg.Len)
}

// vcFlits appends the flits buffered in VC port to dst, front first: the
// rest of the front message, then each queued message from its head.
func (e *Engine) vcFlits(port int32, dst []flitRef) []flitRef {
	v := &e.chans[port]
	q := e.msgq[port*e.depth:][:v.qn]
	slot, seq, n := v.front1-1, v.seq, v.flen
	for j := int32(0); j < v.count; j++ {
		dst = append(dst, flitRef{slot, seq})
		if seq++; seq == n && len(q) > 0 {
			slot, seq, n, q = q[0], 0, e.msgLen(q[0]), q[1:]
		}
	}
	return dst
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
// It reports whether work moved: a flit crossed a link or was delivered,
// or a recovery abort freed the channels a deadlock held.
func (e *Engine) Cycle(now int64) bool {
	e.now = now
	moved, delivered := e.FlitsMoved, e.FlitsDelivered
	aborted := e.stepRecovery(now)
	e.drainCredits(now)
	e.allocatePass()
	e.nextPass()
	e.traversePass(now)
	e.advanceRotation()
	return aborted || e.FlitsMoved != moved || e.FlitsDelivered != delivered
}

// drainCredits applies every credit whose travel time has elapsed.
func (e *Engine) drainCredits(now int64) {
	i := e.creditHead
	for ; i < len(e.creditQueue) && e.creditQueue[i].at <= now; i++ {
		e.chans[e.creditQueue[i].ch].spent--
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
// into the routing set, and a flit that wakes an idle VC, or a delivery
// hook that injects, puts a port into the routing set, which this pass
// does not walk).
//
// A flit is committed to the channel it enters as it is sent, on the
// record whose credits the send has just checked: the channel counts it
// and stamps arrived with this pass, and a head becomes the front of an
// empty buffer or queues behind the front (commitHead). A VC sends only
// a flit that did not arrive this pass, count > (arrived == pass); that is
// the one-cycle link delay.
//
// A link VC that holds an output channel — most visits under load — sends
// without a data-dependent branch: the four guards (a flit to send, the
// physical input port and the output link not yet claimed this pass, a
// credit left) fold into one 0/1 flag k, and every write a send makes is
// scaled or masked by it: the credit spent and the flit counted
// downstream, the arrived stamp and both busy stamps (pass&m | old&^m with
// m = -k), LinkFlits, the VC's next flit and count, and the credit return.
// Which guard fails is close to random per visit, so a branch on each
// mispredicted often. Three branches remain: two test a configuration
// constant before k (a CreditDelay > 0 credit is queued, recovery notes
// progress), and the third takes k & (head | tail): a head is committed
// to the runs downstream, and a tail moves the VC's front to its next
// message and retires it. Injection ports and local deliveries (a link VC
// with no output held) keep the branched send block. The walk re-tests no
// phase: Check's port-set clause holds active membership to vcActive, and
// an active injection port to a non-empty queue. FlitsMoved is written
// back at the pass's single exit.
func (e *Engine) traversePass(now int64) {
	nl, total := e.numLinkInputs(), e.NumPorts()
	s := &e.active
	if s.n == 0 {
		return
	}
	moved := 0
	chans, inj, linkFlits := e.chans, e.inj, e.LinkFlits
	outLinkBusy, inPortBusy := e.outLinkBusy, e.inPortBusy
	depth, pass, nl32, numLinks := e.depth, e.pass, int32(nl), int32(e.numLinks)
	creditDelay, recovery := int64(e.prm.CreditDelay), e.recovery != nil
	for from, to := e.start, total; ; from, to = 0, e.start {
		wFrom, wTo := from>>6, (to-1)>>6+1
		for sw := wFrom >> 6; sw <= (wTo-1)>>6; sw++ {
			for sum := segWord(s.sum, sw, wFrom, wTo); sum != 0; sum &= sum - 1 {
				w := sw<<6 + mathbits.TrailingZeros64(sum)
				for word := segWord(s.words, w, from, to); word != 0; word &= word - 1 {
					port := int32(w<<6 + mathbits.TrailingZeros64(word))
					if port < nl32 {
						v := &chans[port]
						inPort, outLink, outCh1 := v.inLink, v.outLink, v.outCh1
						slot, seq, flen := v.front1-1, v.seq, v.flen
						ready := flag(v.count > flag(v.arrived == pass))
						if outCh1 != 0 {
							o := &chans[outCh1-1]
							k := ready & flag(inPortBusy[inPort] != pass) &
								flag(outLinkBusy[outLink] != pass) & flag(o.spent != depth)
							m := uint32(-k)
							o.spent += k
							o.count += k
							o.arrived = pass&m | o.arrived&^m
							outLinkBusy[outLink] = pass&m | outLinkBusy[outLink]&^m
							inPortBusy[inPort] = pass&m | inPortBusy[inPort]&^m
							moved += int(k)
							linkFlits[outLink] += int64(k)
							v.seq = seq + k
							v.count -= k
							if creditDelay == 0 {
								v.spent -= k
							} else if k != 0 {
								e.creditQueue = append(e.creditQueue, pendingCredit{ch: port, at: now + creditDelay})
							}
							if recovery && k != 0 {
								e.noteProgress(slot, now)
							}
							if k&(flag(seq == 0)|flag(seq+1 == flen)) != 0 {
								if seq == 0 {
									e.commitHead(outCh1-1, o, slot, flen)
								}
								if seq+1 == flen {
									e.popFront(port, v)
									e.retireVC(port, v)
								}
							}
							continue
						}
						// Local delivery too consumes one flit per input port per cycle.
						if ready == 0 || inPortBusy[inPort] == pass {
							continue
						}
						inPortBusy[inPort] = pass
						v.seq++
						v.count--
						if creditDelay == 0 {
							v.spent--
						} else {
							e.creditQueue = append(e.creditQueue, pendingCredit{ch: port, at: now + creditDelay})
						}
						tail := seq+1 == flen
						e.deliverFlit(slot, seq, tail, now)
						if tail {
							e.popFront(port, v)
							e.retireVC(port, v)
						}
						continue
					}
					p := &inj[port-nl32]
					inPort, outLink, outCh1 := numLinks+port-nl32, p.outLink, p.outCh1
					if inPortBusy[inPort] == pass {
						continue
					}
					slot, seq, flen := p.front(), int32(p.sent), int32(p.frontLen)
					if outCh1 != 0 {
						o := &chans[outCh1-1]
						if outLinkBusy[outLink] == pass || o.spent == depth {
							continue
						}
						o.spent++
						o.count++
						o.arrived = pass
						if seq == 0 {
							e.commitHead(outCh1-1, o, slot, flen)
						}
						outLinkBusy[outLink] = pass
						linkFlits[outLink]++
						e.noteProgress(slot, now)
					}
					inPortBusy[inPort] = pass
					p.sent++
					moved++ // a link send or a self-send; a link VC's local delivery is not counted
					if outCh1 == 0 {
						e.deliverFlit(slot, seq, seq+1 == flen, now)
					}
					if seq+1 == flen {
						e.retireFront(topology.Node(port-nl32), p)
					}
				}
			}
		}
		if from == 0 {
			break
		}
	}
	e.FlitsMoved += int64(moved)
}

// flag returns 1 when b holds and 0 otherwise; the compiler lowers it to a
// flag set, not a branch.
func flag(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// commitHead records the head of the flen-flit message in arena slot
// slot, just counted into channel ch (record o): it becomes the front of
// an empty buffer or queues behind the front, and an idle VC starts
// routing it.
func (e *Engine) commitHead(ch int32, o *channel, slot, flen int32) {
	if o.front1 == 0 {
		o.front1, o.seq, o.flen = slot+1, 0, flen
	} else {
		e.msgq[ch*e.depth+o.qn] = slot
		o.qn++
	}
	if o.phase == vcIdle {
		e.setPhase(int(ch), &o.phase, vcRouting)
		o.rcWait = int32(e.prm.RouteDelay)
		o.inLink = ch / e.nvc
	}
}

// popFront moves VC port past its front message once the message's tail
// has left (or recovery removed it): the first queued message becomes the
// front, or the buffer fronts nothing.
func (e *Engine) popFront(port int32, v *channel) {
	if v.qn == 0 {
		v.front1, v.seq, v.flen = 0, 0, 0
		return
	}
	q := e.msgq[port*e.depth:][:v.qn]
	s := q[0]
	copy(q, q[1:])
	v.qn--
	v.front1, v.seq, v.flen = s+1, 0, int32(e.slots[s].msg.Len)
}

// claimOutput resolves routing for a header at `here` and claims an output
// channel for input port owner. Returns (outLink, outCh1, ok).
func (e *Engine) claimOutput(here topology.Node, dst int, inLink topology.LinkID, inVC int, owner int32) (int32, int32, bool) {
	e.cands = e.fn.Candidates(here, topology.Node(dst), inLink, inVC, e.cands[:0])
	for _, c := range e.cands {
		idx := int32(c.Link)*e.nvc + int32(c.VC)
		if o := &e.chans[idx]; o.owner1 == 0 {
			o.owner1 = owner + 1
			return int32(c.Link), idx + 1, true
		}
	}
	return 0, 0, false
}

func (e *Engine) allocateLinkVC(port int32) {
	v := &e.chans[port]
	if v.phase != vcRouting || v.count == 0 {
		return // header not yet arrived
	}
	if v.seq != 0 {
		panic(fmt.Sprintf("wormhole: routing phase with flit %d of a message at front", v.seq))
	}
	if v.rcWait > 0 {
		v.rcWait--
		return
	}
	here := topology.Node(e.to[v.inLink])
	if here < 0 {
		panic("wormhole: flit on non-existent link")
	}
	dst := e.slots[v.front1-1].msg.Dst
	if int(here) == dst {
		e.setPhase(int(port), &v.phase, vcActive) // deliver locally: outCh1 stays 0
		return
	}
	inVC := int(port - v.inLink*e.nvc)
	if outLink, outCh1, claimed := e.claimOutput(here, dst, topology.LinkID(v.inLink), inVC, port); claimed {
		e.setPhase(int(port), &v.phase, vcActive)
		v.outLink, v.outCh1 = outLink, outCh1
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

// retireVC ends the message VC port was streaming once its tail has left
// (or recovery aborted it) and the buffer's front has moved past it: the
// output channel is released and the VC routes the next buffered header,
// or goes idle.
func (e *Engine) retireVC(port int32, v *channel) {
	if v.outCh1 != 0 {
		e.chans[v.outCh1-1].owner1 = 0
	}
	v.outCh1 = 0
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
		e.chans[p.outCh1-1].owner1 = 0
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

// deliverFlit consumes flit seq of the message in arena slot slot at its
// destination; the tail completes the message.
func (e *Engine) deliverFlit(slot, seq int32, tail bool, now int64) {
	e.FlitsDelivered++
	if e.flitProbe != nil {
		e.flitProbe(e.slots[slot].msg.FlitAt(int(seq)))
	}
	if !tail {
		return
	}
	sl := &e.slots[slot]
	if !sl.live {
		panic(fmt.Sprintf("wormhole: delivered a flit of free slot %d", slot))
	}
	m := sl.msg
	e.freeSlot(slot)
	e.MsgsDelivered++
	if e.hooks.Delivered != nil {
		e.hooks.Delivered(m, now)
	}
}

// Quiesce reports whether the engine holds no work at all (the drain
// condition of the package's standalone-engine tests).
func (e *Engine) Quiesce() bool { return e.liveSlots == 0 }
