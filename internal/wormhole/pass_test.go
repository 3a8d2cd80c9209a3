package wormhole

import (
	"math"
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// uniformSource offers uniform random traffic: every cycle each node starts
// a msgLen-flit message to a uniformly drawn other node with probability
// load/msgLen, so load is the offered flits per node per cycle.
type uniformSource struct {
	rng    *sim.RNG
	nodes  int
	msgLen int
	p      float64
	next   flit.MsgID
}

func newUniformSource(seed uint64, nodes, msgLen int, load float64) *uniformSource {
	return &uniformSource{rng: sim.NewRNG(seed), nodes: nodes, msgLen: msgLen, p: load / float64(msgLen)}
}

// tick offers one cycle of traffic to e.
func (u *uniformSource) tick(e *Engine, now int64) {
	for n := 0; n < u.nodes; n++ {
		if !u.rng.Bool(u.p) {
			continue
		}
		dst := u.rng.Intn(u.nodes - 1)
		if dst >= n {
			dst++
		}
		u.next++
		e.Inject(flit.Message{ID: u.next, Src: n, Dst: dst, Len: u.msgLen, InjectTime: now})
	}
}

// torusEngine builds an engine on a radix×radix torus over the routing
// function core.New installs; delivered, when non-nil, is the delivery
// hook.
func torusEngine(tb testing.TB, radix int, fnName string, prm Params, delivered func(flit.Message, int64)) *Engine {
	tb.Helper()
	topo := topology.MustCube([]int{radix, radix}, true)
	fn, err := routing.New(fnName, topo, prm.NumVCs)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(topo, fn, prm, Hooks{Delivered: delivered})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// delivery is one message completion as the hook saw it.
type delivery struct {
	id flit.MsgID
	at int64
}

// TestPassStampWraparound runs the same sustained load through two
// engines: one whose pass stamp is moved to a few steps below
// math.MaxUint32 mid-run, and a fresh one. At the
// jump every busy entry of the first engine is given the stamp of some
// earlier pass, 1 to 8, so the counter wraps while flits move and its next
// passes take stamp values that are still in the arrays. Both engines
// must move and deliver the same flits at the same cycles.
func TestPassStampWraparound(t *testing.T) {
	const cycles, jumpAt = 3000, 500
	type run struct {
		eng  *Engine
		src  *uniformSource
		seen []delivery
	}
	mk := func(prm Params) *run {
		r := &run{src: newUniformSource(7, 64, 16, 0.35)}
		r.eng = torusEngine(t, 8, "dor", prm, func(m flit.Message, now int64) {
			r.seen = append(r.seen, delivery{m.ID, now})
		})
		return r
	}
	prm := Params{NumVCs: 2, BufDepth: 4}
	wrapped, fresh := mk(prm), mk(prm)
	runs := []*run{wrapped, fresh}
	for now := int64(0); now < cycles; now++ {
		if now == jumpAt {
			e := wrapped.eng
			e.pass = math.MaxUint32 - 3
			for _, busy := range [][]uint32{e.outLinkBusy, e.inPortBusy} {
				for i := range busy {
					busy[i] = uint32(1 + i%8)
				}
			}
		}
		for _, r := range runs {
			r.src.tick(r.eng, now)
			r.eng.Cycle(now)
		}
	}
	if wrapped.eng.pass >= fresh.eng.pass {
		t.Fatalf("pass stamp %d after the run: it did not wrap", wrapped.eng.pass)
	}
	if len(fresh.seen) < 200 {
		t.Fatalf("only %d deliveries: the load is too light to contend", len(fresh.seen))
	}
	if wrapped.eng.FlitsMoved != fresh.eng.FlitsMoved {
		t.Errorf("FlitsMoved %d, fresh engine %d", wrapped.eng.FlitsMoved, fresh.eng.FlitsMoved)
	}
	if !slices.Equal(wrapped.eng.LinkFlits, fresh.eng.LinkFlits) {
		t.Error("LinkFlits differ from the fresh engine's")
	}
	if !slices.Equal(wrapped.seen, fresh.seen) {
		t.Errorf("delivery sequence differs from the fresh engine's (%d vs %d deliveries)", len(wrapped.seen), len(fresh.seen))
	}
}

// TestQueuesStayBoundedUnderSustainedTraffic checks that the head-indexed
// queues keep memory proportional to what they hold when they never drain:
// the credit pipe under CreditDelay 3 always has credits in flight, and a
// source topped up to three queued messages is never empty.
func TestQueuesStayBoundedUnderSustainedTraffic(t *testing.T) {
	eng := torusEngine(t, 8, "dor", Params{NumVCs: 2, BufDepth: 4, CreditDelay: 3}, nil)
	src := newUniformSource(3, 64, 16, 0.2)
	var id flit.MsgID = 1 << 40
	maxCredits, maxQueued := 0, 0
	for now := int64(0); now < 20000; now++ {
		src.tick(eng, now)
		for eng.QueueLen(0) < 3 {
			id++
			eng.Inject(flit.Message{ID: id, Src: 0, Dst: 27, Len: 16, InjectTime: now})
		}
		eng.Cycle(now)
		maxCredits = max(maxCredits, len(eng.creditQueue)-eng.creditHead)
		maxQueued = max(maxQueued, eng.QueueLen(0))
	}
	if eng.FlitsMoved < 100_000 {
		t.Fatalf("only %d flits moved: the load is too light", eng.FlitsMoved)
	}
	if c := cap(eng.creditQueue); c > 4*maxCredits+16 {
		t.Errorf("credit queue capacity %d, at most %d credits in flight", c, maxCredits)
	}
	if c := cap(eng.inj[0].queue); c > 4*maxQueued+16 {
		t.Errorf("backlogged source queue capacity %d, at most %d messages queued", c, maxQueued)
	}
}

// contendedTorus returns an 8x8 torus under duato over 3 VCs of depth 2, so
// several VCs share every link and run out of credit, loaded by a burst of
// 16 messages per node, and a source of 8-flit messages at the given load
// that keeps injection ports waking after the burst drains.
func contendedTorus(t *testing.T, load float64) (*Engine, *uniformSource) {
	const radix = 8
	e := torusEngine(t, radix, "duato", Params{NumVCs: 3, BufDepth: 2}, nil)
	nodes := radix * radix
	burst := newUniformSource(17, nodes, 12, 12)
	for i := 0; i < 16; i++ {
		burst.tick(e, 0)
	}
	after := newUniformSource(18, nodes, 8, load)
	after.next = burst.next
	return e, after
}

// buffered counts the flits held by each physical input link's VCs.
func buffered(e *Engine) []int32 {
	b := make([]int32, e.numLinks)
	for ch := range e.in {
		b[int32(ch)/e.nvc] += e.in[ch].count
	}
	return b
}

// unsent counts the flits still to leave each injection port.
func unsent(e *Engine) []int {
	u := make([]int, len(e.inj))
	for n := range e.inj {
		p := &e.inj[n]
		u[n] = -p.sent
		for _, s := range p.queue[p.head:] {
			u[n] += e.slots[s].msg.Len
		}
	}
	return u
}

// cycleChecked runs cycle cyc of e and holds what its traversal pass did to
// the busy stamps the pass wrote: an output link carried one flit (one
// arrival and one LinkFlits count) if its stamp is this pass's and none
// otherwise, and a physical input port (a link's VCs together, or an
// injection port) let one flit leave, sent on or delivered, if stamped and
// none otherwise. So no link carries two flits and no port sends two, and a
// visit that does not send leaves no trace. It reports whether some input
// link held flits at the start of the cycle and sent none.
func cycleChecked(t *testing.T, e *Engine, cyc int64) (stalled bool) {
	t.Helper()
	nvc, links := e.nvc, e.numLinks
	linkFlits, left, unsentBefore := slices.Clone(e.LinkFlits), buffered(e), unsent(e)
	held := slices.Clone(left)
	e.Cycle(cyc)
	carried := make([]int64, links)
	for _, a := range e.arrivals {
		carried[a.ch/nvc]++
		left[a.ch/nvc]++
	}
	after, unsentAfter := buffered(e), unsent(e)
	for l := 0; l < links; l++ {
		var out, in int64
		if e.outLinkBusy[l] == e.pass {
			out = 1
		}
		if e.inPortBusy[l] == e.pass {
			in = 1
		}
		if d := e.LinkFlits[l] - linkFlits[l]; carried[l] != out || d != out {
			t.Fatalf("cycle %d: output link %d stamped %d, carries %d arrivals, LinkFlits rose by %d", cyc, l, out, carried[l], d)
		}
		if d := int64(left[l] - after[l]); d != in {
			t.Fatalf("cycle %d: input link %d stamped %d, %d flits left it", cyc, l, in, d)
		}
		stalled = stalled || (held[l] > 0 && in == 0)
	}
	for n := range unsentAfter {
		in := 0
		if e.inPortBusy[links+n] == e.pass {
			in = 1
		}
		if d := unsentBefore[n] - unsentAfter[n]; d != in {
			t.Fatalf("cycle %d: injection port %d stamped %d, sent %d flits", cyc, n, in, d)
		}
	}
	return stalled
}

// TestOneFlitPerLinkPerCycle holds the traversal pass to the switch
// allocation rule (cycleChecked) on the contended torus, lightly loaded
// once its burst drains, and requires cycles that begin with two VCs of one
// link holding flits.
func TestOneFlitPerLinkPerCycle(t *testing.T) {
	const cycles = 3000
	e, light := contendedTorus(t, 0.05)
	nvc, links := e.nvc, e.numLinks
	shared := 0 // cycles that began with two VCs of one link holding flits
	for cyc := int64(1); cyc <= cycles; cyc++ {
		light.tick(e, cyc)
	scan:
		for l := 0; l < links; l++ {
			held := 0
			for _, v := range e.in[int32(l)*nvc:][:nvc] {
				if v.count > 0 {
					if held++; held == 2 {
						shared++
						break scan
					}
				}
			}
		}
		cycleChecked(t, e, cyc)
	}
	mustCheck(t, e)
	if shared < cycles/10 {
		t.Fatalf("only %d of %d cycles began with VCs sharing a link", shared, cycles)
	}
}

// TestTraversalOutcomes holds the predicated send to the switch allocation
// rule (cycleChecked) on the contended torus held near saturation, where
// many visits find an empty buffer, no credit or a claimed link or port,
// with Check after every cycle, and requires buffered flits that do not
// move in most cycles.
func TestTraversalOutcomes(t *testing.T) {
	const cycles = 3000
	e, src := contendedTorus(t, 0.3)
	stalled := 0
	for cyc := int64(1); cyc <= cycles; cyc++ {
		src.tick(e, cyc)
		if cycleChecked(t, e, cyc) {
			stalled++
		}
		mustCheck(t, e)
	}
	if stalled < cycles/2 {
		t.Fatalf("only %d of %d cycles held buffered flits that did not move", stalled, cycles)
	}
}
