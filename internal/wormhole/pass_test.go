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

// TestPassStampWraparound runs the same sustained load through three
// engines: one whose pass stamp is moved to a few steps below
// math.MaxUint32 mid-run, a fresh one, and the full-scan oracle. At the
// jump every busy entry of the first engine is given the stamp of some
// earlier pass, 1 to 8, so the counter wraps while flits move and its next
// passes take stamp values that are still in the arrays. All three engines
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
	prm.DisableActivityTracking = true
	oracle := mk(prm)
	runs := []*run{wrapped, fresh, oracle}
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
	for _, r := range []*run{wrapped, oracle} {
		if r.eng.FlitsMoved != fresh.eng.FlitsMoved {
			t.Errorf("FlitsMoved %d, fresh engine %d", r.eng.FlitsMoved, fresh.eng.FlitsMoved)
		}
		if !slices.Equal(r.eng.LinkFlits, fresh.eng.LinkFlits) {
			t.Error("LinkFlits differ from the fresh engine's")
		}
		if !slices.Equal(r.seen, fresh.seen) {
			t.Errorf("delivery sequence differs from the fresh engine's (%d vs %d deliveries)", len(r.seen), len(fresh.seen))
		}
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
