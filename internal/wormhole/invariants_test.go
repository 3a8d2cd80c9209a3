package wormhole

// Invariant and property tests for the wormhole engine, beyond the behaviour
// tests in engine_test.go: flit conservation, intra-message ordering, virtual
// channel recycling, and stress on higher-dimensional topologies.

import (
	"slices"
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
	for ch := range h.eng.chans {
		if c := int(h.eng.credits(ch)); c != h.eng.prm.BufDepth {
			t.Fatalf("channel %d credits = %d, want %d", ch, c, h.eng.prm.BufDepth)
		}
	}
	for i := range h.eng.chans {
		if h.eng.chans[i].count != 0 {
			t.Fatalf("channel %d buffer not empty after drain", i)
		}
		if h.eng.chans[i].phase != vcIdle {
			t.Fatalf("channel %d phase %d after drain", i, h.eng.chans[i].phase)
		}
	}
	for ch, o := range h.eng.chans {
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
	for ch := range h.eng.chans {
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

// TestFlitRingBasics fills one VC of a 4x4 mesh to its depth with real
// messages addressed to the VC's own router, committed the way the
// traversal pass does, and drains it through the engine's own allocation
// and traversal passes: every message but the front is queued, the flits
// leave one per pass in arrival order, and the drained VC fronts nothing,
// queues nothing and has every credit back.
func TestFlitRingBasics(t *testing.T) {
	const depth = 5
	e := newHarness(t, topology.MustCube([]int{4, 4}, false), "dor", Params{NumVCs: 1, BufDepth: depth}).eng
	port := int32(-1)
	for l, to := range e.to {
		if to >= 0 {
			port = int32(l)
			break
		}
	}
	sink := int(e.to[port])
	v := &e.chans[port]
	var delivered []flitRef
	e.flitProbe = func(f flit.Flit) { delivered = append(delivered, flitRef{int32(f.Msg), int32(f.Seq)}) }

	var want []flitRef
	for i, length := range []int32{2, 1, 1, 1} {
		id := flit.MsgID(i + 1)
		slot := e.allocSlot(flit.Message{ID: id, Src: (sink + 1) % 16, Dst: sink, Len: int(length)})
		for seq := int32(0); seq < length; seq++ {
			v.count++
			v.spent++
			if seq == 0 {
				e.commitHead(port, v, slot, length)
			}
			want = append(want, flitRef{int32(id), seq})
		}
	}
	if v.count != depth || v.qn != 3 {
		t.Fatalf("filled VC holds %d flits with %d messages queued, want %d and 3", v.count, v.qn, depth)
	}
	for pass := 0; pass < depth; pass++ {
		e.allocatePass()
		e.nextPass()
		e.traversePass(0)
		if len(delivered) != pass+1 {
			t.Fatalf("pass %d: %d flits delivered, want %d", pass, len(delivered), pass+1)
		}
	}
	if !slices.Equal(delivered, want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
	if v.count != 0 || v.qn != 0 || v.front1 != 0 || v.spent != 0 {
		t.Fatalf("drained VC: count %d, qn %d, front1 %d, %d credits spent", v.count, v.qn, v.front1, v.spent)
	}
}

// TestFlitRingMatchesModel drives one VC of a 4x4 mesh with real
// messages of 1-3 flits addressed to the VC's own router, so the VC routes
// each header to local delivery and streams it. A step either commits the
// next flit of the arriving message the way the traversal pass does,
// delivers one flit through the engine's own allocation and traversal
// passes, or scrubs one message out as a recovery abort does. After every
// step the buffer, expanded flit by flit, must equal a plain slice: FIFO
// order, length, and order-preserving removal of one message's flits. The
// buffer fills to its depth with every message but the front queued.
func TestFlitRingMatchesModel(t *testing.T) {
	const depth = 5
	e := newHarness(t, topology.MustCube([]int{4, 4}, false), "dor", Params{NumVCs: 1, BufDepth: depth}).eng
	port := int32(-1)
	for l, to := range e.to {
		if to >= 0 {
			port = int32(l)
			break
		}
	}
	sink := int(e.to[port])
	v := &e.chans[port]
	var delivered []flitRef
	e.flitProbe = func(f flit.Flit) { delivered = append(delivered, flitRef{int32(f.Msg), int32(f.Seq)}) }

	var model []flitRef      // buffered flits as (message ID, seq)
	ids := map[int32]int32{} // arena slot -> message ID of the messages in the model
	arriving, sent, length := int32(-1), int32(0), int32(0)
	var nextID flit.MsgID
	rng := sim.NewRNG(21)
	full, deepest := 0, int32(0)
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 && v.count < depth:
			if arriving < 0 {
				nextID++
				length = int32(1 + rng.Intn(3))
				arriving = e.allocSlot(flit.Message{ID: nextID, Src: (sink + 1) % 16, Dst: sink, Len: int(length)})
				ids[arriving], sent = int32(nextID), 0
			}
			v.count++
			v.spent++
			if sent == 0 {
				e.commitHead(port, v, arriving, length)
			}
			model = append(model, flitRef{ids[arriving], sent})
			if sent++; sent == length {
				arriving = -1
			}
		case r < 9 && len(model) > 0:
			delivered = delivered[:0]
			e.allocatePass()
			e.nextPass()
			e.traversePass(0)
			if len(delivered) != 1 || delivered[0] != model[0] {
				t.Fatalf("step %d: delivered %v, want %v", step, delivered, model[0])
			}
			model = model[1:]
		case r == 9 && len(model) > 0:
			id := model[rng.Intn(len(model))].slot
			var s int32 = -1
			for slot, sid := range ids {
				if sid == id {
					s = slot
				}
			}
			kept := model[:0:0]
			for _, ref := range model {
				if ref.slot != id {
					kept = append(kept, ref)
				}
			}
			if removed := e.scrubChannel(port, s); int(removed) != len(model)-len(kept) {
				t.Fatalf("step %d: scrub removed %d, want %d", step, removed, len(model)-len(kept))
			}
			model = kept
			delete(ids, s)
			e.freeSlot(s)
			if s == arriving {
				arriving = -1
			}
		}
		var got []flitRef
		for _, r := range e.vcFlits(port, nil) {
			got = append(got, flitRef{ids[r.slot], r.seq})
		}
		if !slices.Equal(got, model) || int(v.count) != len(model) || v.spent != v.count {
			t.Fatalf("step %d: VC buffers %v (count %d, %d credits spent), model %v", step, got, v.count, v.spent, model)
		}
		for slot := range ids {
			if !slices.ContainsFunc(model, func(r flitRef) bool { return r.slot == ids[slot] }) && slot != arriving {
				delete(ids, slot) // delivered: the arena recycles the slot
			}
		}
		if v.count == depth {
			full++
		}
		deepest = max(deepest, v.qn)
	}
	if full < 100 || deepest != depth-1 {
		t.Fatalf("buffer full in %d steps, at most %d messages queued behind the front: the model never filled it", full, deepest)
	}
	for p := range e.chans {
		if int32(p) != port && e.chans[p].count != 0 {
			t.Fatalf("VC %d holds %d flits; only VC %d was used", p, e.chans[p].count, port)
		}
	}
}
