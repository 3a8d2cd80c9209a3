package wormhole

// Invariant and property tests for the wormhole engine, beyond the behaviour
// tests in engine_test.go: flit conservation, intra-message ordering, virtual
// channel recycling, and stress on higher-dimensional topologies.

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFlitConservation checks that across any random workload, every
// injected flit is eventually delivered exactly once and LinkFlits counters
// are consistent with message paths.
func TestFlitConservation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	prop := func(seed uint16, n uint8) bool {
		msgs := int(n%40) + 5
		h := newHarness(t, topo, "dor", Params{NumVCs: 2, BufDepth: 2})
		rng := sim.NewRNG(uint64(seed))
		var injected int64
		for i := 0; i < msgs; i++ {
			ln := 1 + rng.Intn(9)
			injected += int64(ln)
			h.eng.Inject(flit.Message{
				ID: flit.MsgID(i), Src: rng.Intn(16), Dst: rng.Intn(16),
				Len: ln, InjectTime: 0,
			})
		}
		h.run(t, 500_000)
		return h.eng.FlitsDelivered == injected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkFlitsMatchMinimalPaths verifies the utilization counters: one
// message over deterministic routing crosses exactly Distance links, once
// per flit.
func TestLinkFlitsMatchMinimalPaths(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4})
	const msgLen = 7
	h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 15, Len: msgLen, InjectTime: 0})
	h.run(t, 10_000)
	var total int64
	for _, c := range h.eng.LinkFlits {
		total += c
	}
	want := int64(topo.Distance(0, 15)) * msgLen
	if total != want {
		t.Fatalf("link flits = %d, want %d (distance x len)", total, want)
	}
}

// TestNoIntraMessageReordering delivers flits of each message in strictly
// increasing sequence order, even under adaptive routing (flits of one
// message follow one worm; adaptivity applies between messages).
func TestNoIntraMessageReordering(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := routing.New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := map[flit.MsgID]int{}
	violations := 0
	eng, err := New(topo, fn, Params{NumVCs: 3, BufDepth: 2}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	// Observe per-flit delivery through the counter path: instrument by
	// wrapping deliverFlit via the Delivered hook on tails plus white-box
	// inspection of buffers is overkill — instead check sequence at delivery
	// by replacing the hook with a per-flit probe using a shim engine.
	eng.hooks.Delivered = func(m flit.Message, now int64) {}
	rng := sim.NewRNG(5)
	for i := 0; i < 120; i++ {
		eng.Inject(flit.Message{ID: flit.MsgID(i), Src: rng.Intn(16), Dst: rng.Intn(16), Len: 1 + rng.Intn(12), InjectTime: 0})
	}
	probe := func(fl flit.Flit) {
		if last, ok := lastSeq[fl.Msg]; ok && fl.Seq != last+1 {
			violations++
		}
		lastSeq[fl.Msg] = fl.Seq
	}
	for cyc := int64(0); !eng.Quiesce(); cyc++ {
		eng.flitProbe = probe
		eng.Cycle(cyc)
		if cyc > 500_000 {
			t.Fatal("did not drain")
		}
	}
	if violations != 0 {
		t.Fatalf("%d intra-message reorderings", violations)
	}
}

// TestVCRecycling reuses a virtual channel for a second message immediately
// after the first message's tail, verifying the idle->routing transition on
// a non-empty buffer.
func TestVCRecycling(t *testing.T) {
	topo := topology.MustCube([]int{8, 2}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 8})
	// Two short back-to-back messages on the same path: the second's header
	// lands in the same VC buffer behind the first's tail.
	h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 7, Len: 2, InjectTime: 0})
	h.eng.Inject(flit.Message{ID: 2, Src: 0, Dst: 7, Len: 2, InjectTime: 0})
	cycles := h.run(t, 10_000)
	// Pipelined: second message finishes within a few cycles of the first,
	// far sooner than a serialized 2x.
	if cycles > 7+2+8 {
		t.Fatalf("VC recycling too slow: %d cycles", cycles)
	}
}

// TestHigherDimensionalStress drains random traffic on a 3-D torus and a
// hypercube — topologies with different escape structures.
func TestHigherDimensionalStress(t *testing.T) {
	cube3, err := topology.NewCube([]int{4, 4, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := topology.NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		topo topology.Topology
		fn   string
		prm  Params
	}{
		{"dor-3d-torus", cube3, "dor", Params{NumVCs: 2, BufDepth: 2}},
		{"duato-3d-torus", cube3, "duato", Params{NumVCs: 3, BufDepth: 2}},
		{"dor-hypercube", hyper, "dor", Params{NumVCs: 1, BufDepth: 2}},
		{"duato-hypercube", hyper, "duato", Params{NumVCs: 2, BufDepth: 2}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			testRandomTrafficDrains(t, c.topo, c.fn, c.prm, 400)
		})
	}
}

// TestSaturationBackpressure floods one node with traffic: the network must
// apply backpressure (source queue growth) but still drain completely once
// injection stops.
func TestSaturationBackpressure(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 2, BufDepth: 2})
	for i := 0; i < 15; i++ {
		src := i
		if src >= 10 {
			src++ // skip the hotspot itself
		}
		for j := 0; j < 8; j++ {
			h.eng.Inject(flit.Message{ID: flit.MsgID(i*8 + j), Src: src % 16, Dst: 10, Len: 16, InjectTime: 0})
		}
	}
	peak := 0
	for cyc := int64(0); !h.eng.Quiesce(); cyc++ {
		h.eng.Cycle(cyc)
		if q := h.eng.QueueLen(0); q > peak {
			peak = q
		}
		if cyc > 500_000 {
			t.Fatal("saturated network never drained")
		}
	}
	if len(h.delivered) != 120 {
		t.Fatalf("delivered %d of 120", len(h.delivered))
	}
}

// TestCreditInvariantUnderLoad: after draining, every credit counter is back
// at full depth and every buffer empty — no leaked credits or stranded flits.
func TestCreditInvariantUnderLoad(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, "duato", Params{NumVCs: 3, BufDepth: 4})
	rng := sim.NewRNG(17)
	for i := 0; i < 300; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: rng.Intn(16), Dst: rng.Intn(16), Len: 1 + rng.Intn(20), InjectTime: 0})
	}
	h.run(t, 1_000_000)
	for ch := range h.eng.out {
		if c := int(h.eng.credits(ch)); c != h.eng.prm.BufDepth {
			t.Fatalf("channel %d credits = %d, want %d", ch, c, h.eng.prm.BufDepth)
		}
	}
	for i := range h.eng.in {
		if h.eng.in[i].count != 0 {
			t.Fatalf("channel %d buffer not empty after drain", i)
		}
		if h.eng.in[i].phase != vcIdle {
			t.Fatalf("channel %d phase %d after drain", i, h.eng.in[i].phase)
		}
	}
	for ch, o := range h.eng.out {
		if owner := o.owner(); owner != -1 {
			t.Fatalf("output VC %d still owned by %d", ch, owner)
		}
	}
}

// TestCreditDelayThrottles: with a 1-flit buffer, the per-channel service
// period is (credit round trip + 1); delay 2 stretches the zero-delay
// 2-cycle period to 3 cycles, so a long message takes ~1.5x longer.
func TestCreditDelayThrottles(t *testing.T) {
	topo := topology.MustCube([]int{8, 2}, false)
	run1 := func(delay int) int64 {
		h := newHarnessP(t, topo, "dor", Params{NumVCs: 1, BufDepth: 1, CreditDelay: delay})
		h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 7, Len: 40, InjectTime: 0})
		h.run(t, 100_000)
		return h.delivered[1]
	}
	fast := run1(0)
	slow := run1(2)
	if slow*10 < fast*14 {
		t.Fatalf("credit delay 2 with 1-flit buffers: %d vs %d cycles, expected ~1.5x", slow, fast)
	}
	// With deep buffers the delay is absorbed.
	deep := func(delay int) int64 {
		h := newHarnessP(t, topo, "dor", Params{NumVCs: 1, BufDepth: 8, CreditDelay: delay})
		h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 7, Len: 40, InjectTime: 0})
		h.run(t, 100_000)
		return h.delivered[1]
	}
	if a, b := deep(0), deep(2); b > a+8 {
		t.Fatalf("deep buffers should absorb credit delay: %d vs %d", a, b)
	}
}

// TestCreditDelayStillDrains: delayed credits must not break deadlock
// freedom or lose credits.
func TestCreditDelayStillDrains(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarnessP(t, topo, "duato", Params{NumVCs: 3, BufDepth: 2, CreditDelay: 3})
	rng := sim.NewRNG(9)
	for i := 0; i < 200; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: rng.Intn(16), Dst: rng.Intn(16), Len: 1 + rng.Intn(16), InjectTime: 0})
	}
	h.run(t, 1_000_000)
	// All credits eventually return.
	for cyc := int64(0); cyc < 10; cyc++ {
		h.eng.Cycle(1_000_000 + cyc)
	}
	for ch := range h.eng.out {
		if c := h.eng.credits(ch); c != 2 {
			t.Fatalf("channel %d credits = %d after drain", ch, c)
		}
	}
}

func TestNegativeCreditDelayRejected(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	fn, _ := routing.NewDOR(topo, 1)
	if _, err := New(topo, fn, Params{NumVCs: 1, BufDepth: 1, CreditDelay: -1}, Hooks{}); err == nil {
		t.Fatal("negative credit delay accepted")
	}
}

// TestWestFirstWormholeDrains runs the turn-model router under random
// traffic on a mesh: deadlock-free without virtual channel constraints.
func TestWestFirstWormholeDrains(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	testRandomTrafficDrains(t, topo, "westfirst", Params{NumVCs: 1, BufDepth: 2}, 500)
	testRandomTrafficDrains(t, topo, "westfirst", Params{NumVCs: 2, BufDepth: 4}, 500)
}

// TestRouteDelayLatency: with per-hop route computation delay R, a lone
// message pays R extra cycles at every router it is routed through (source
// injection + each arrival including the destination).
func TestRouteDelayLatency(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	const msgLen = 4
	lat := func(rd int) int64 {
		h := newHarnessP(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4, RouteDelay: rd})
		h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 15, Len: msgLen, InjectTime: 0})
		h.run(t, 10_000)
		return h.delivered[1]
	}
	d := int64(topo.Distance(0, 15))
	base := lat(0)
	if base != d+msgLen-1 {
		t.Fatalf("baseline latency = %d", base)
	}
	for _, rd := range []int{1, 3} {
		got := lat(rd)
		want := base + int64(rd)*(d+1) // one RC stage per router visited
		if got != want {
			t.Fatalf("RouteDelay=%d latency = %d, want %d", rd, got, want)
		}
	}
}

// TestRouteDelayStillDrains keeps the deadlock-freedom property.
func TestRouteDelayStillDrains(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	testRandomTrafficDrains(t, topo, "duato", Params{NumVCs: 3, BufDepth: 2, RouteDelay: 2}, 300)
}

func TestNegativeRouteDelayRejected(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	fn, _ := routing.NewDOR(topo, 1)
	if _, err := New(topo, fn, Params{NumVCs: 1, BufDepth: 1, RouteDelay: -1}, Hooks{}); err == nil {
		t.Fatal("negative route delay accepted")
	}
}

// TestNegativeFirstWormholeDrains: the n-dimensional turn-model router under
// random traffic.
func TestNegativeFirstWormholeDrains(t *testing.T) {
	testRandomTrafficDrains(t, topology.MustCube([]int{4, 4}, false), "negativefirst",
		Params{NumVCs: 1, BufDepth: 2}, 500)
	testRandomTrafficDrains(t, topology.MustCube([]int{3, 3, 3}, false), "negativefirst",
		Params{NumVCs: 2, BufDepth: 2}, 400)
}

// ringHarness returns an engine with VC port of a 4x4 mesh held active with
// no output, so that ringPush and ringPop move its ring through the
// engine's own passes.
func ringHarness(t *testing.T, depth int, port int32) *Engine {
	t.Helper()
	e := newHarness(t, topology.MustCube([]int{4, 4}, false), "dor", Params{NumVCs: 1, BufDepth: depth}).eng
	v := &e.in[port]
	e.setPhase(int(port), &v.phase, vcActive)
	v.inLink = port / e.nvc
	return e
}

// ringPush appends ref behind the flits buffered in VC port, committing it
// as the one arrival of a cycle.
func ringPush(e *Engine, port int32, ref flitRef) {
	e.arrivals = append(e.arrivals[:0], arrival{ch: port, ref: ref})
	e.commitArrivals()
}

// ringPop drops the front flit of VC port: the traversal walk delivers it
// locally, one flit per pass.
func ringPop(t *testing.T, e *Engine, port int32) {
	t.Helper()
	before := e.in[port].count
	e.nextPass()
	e.traversePass(0)
	if got := e.in[port].count; got != before-1 {
		t.Fatalf("pop left %d of %d flits buffered", got, before)
	}
}

// TestFlitRingMatchesModel drives one VC's ring region through random
// pushes, pops and recovery scrubs — wrapping its head around the region
// many times — and checks it against a plain slice after every step: FIFO
// order, length, and order-preserving removal of one message's flits.
func TestFlitRingMatchesModel(t *testing.T) {
	const depth = 5
	const port = int32(3)
	e := ringHarness(t, depth, port)
	v := &e.in[port]
	var model []flitRef
	rng := sim.NewRNG(21)
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 && len(model) < depth:
			ref := flitRef{slot: int32(rng.Intn(4)), seq: int32(step), kind: flit.Body}
			ringPush(e, port, ref)
			model = append(model, ref)
		case r < 9 && len(model) > 0:
			if got := e.ring[e.ringAt(port, 0)]; got != model[0] {
				t.Fatalf("step %d: front %+v, want %+v", step, got, model[0])
			}
			ringPop(t, e, port)
			model = model[1:]
		case r == 9:
			s := int32(rng.Intn(4))
			kept := model[:0:0]
			for _, ref := range model {
				if ref.slot != s {
					kept = append(kept, ref)
				}
			}
			if removed := e.scrubVC(port, s); int(removed) != len(model)-len(kept) {
				t.Fatalf("step %d: scrub removed %d, want %d", step, removed, len(model)-len(kept))
			}
			model = kept
		}
		if int(v.count) != len(model) || v.head < 0 || v.head >= depth {
			t.Fatalf("step %d: head %d count %d, model holds %d", step, v.head, v.count, len(model))
		}
		for i, want := range model {
			if got := e.ring[e.ringAt(port, int32(i))]; got != want {
				t.Fatalf("step %d: entry %d = %+v, want %+v", step, i, got, want)
			}
		}
	}
}

// TestFlitRingBasics fills one VC's ring region to its depth and drains it:
// length tracks every push and pop, the front is always the oldest flit,
// and a full drain leaves the head back at the start of the region.
func TestFlitRingBasics(t *testing.T) {
	const depth = 3
	const port = int32(2)
	e := ringHarness(t, depth, port)
	v := &e.in[port]
	if v.count != 0 || v.head != 0 {
		t.Fatalf("fresh ring: head %d count %d", v.head, v.count)
	}
	for i := int32(0); i < depth; i++ {
		ringPush(e, port, flitRef{slot: 1, seq: i, kind: flit.Body})
		if v.count != i+1 {
			t.Fatalf("push %d: count %d", i, v.count)
		}
	}
	if v.count != e.depth {
		t.Fatalf("ring holds %d of %d after filling", v.count, e.depth)
	}
	for i := int32(0); i < depth; i++ {
		if got := e.ring[e.ringAt(port, 0)]; got.seq != i {
			t.Fatalf("pop %d: front seq %d", i, got.seq)
		}
		ringPop(t, e, port)
		if v.count != depth-i-1 {
			t.Fatalf("pop %d: count %d", i, v.count)
		}
	}
	if v.head != 0 {
		t.Fatalf("drained ring: head %d, want 0", v.head)
	}
	for p := range e.in {
		if int32(p) != port && e.in[p].count != 0 {
			t.Fatalf("VC %d holds %d flits; only VC %d was used", p, e.in[p].count, port)
		}
	}
}

// TestFlitRingWrapAround alternates one push and one pop on a two-flit
// region, so the head crosses the end of the region every other round,
// and checks each pop returns the flit just pushed.
func TestFlitRingWrapAround(t *testing.T) {
	const port = int32(1)
	e := ringHarness(t, 2, port)
	v := &e.in[port]
	for round := int32(0); round < 10; round++ {
		ringPush(e, port, flitRef{slot: 0, seq: round, kind: flit.Body})
		if got := e.ring[e.ringAt(port, 0)]; got.seq != round {
			t.Fatalf("round %d: front seq %d", round, got.seq)
		}
		ringPop(t, e, port)
		if v.count != 0 || v.head != (round+1)%2 {
			t.Fatalf("round %d: head %d count %d", round, v.head, v.count)
		}
	}
}
