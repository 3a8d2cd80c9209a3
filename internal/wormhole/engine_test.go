package wormhole

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

type harness struct {
	topo      topology.Topology
	eng       *Engine
	delivered map[flit.MsgID]int64
	order     []flit.MsgID
}

func newHarness(t *testing.T, topo topology.Topology, fnName string, prm Params) *harness {
	t.Helper()
	fn, err := routing.New(fnName, topo, prm.NumVCs)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{topo: topo, delivered: map[flit.MsgID]int64{}}
	eng, err := New(topo, fn, prm, Hooks{
		Delivered: func(m flit.Message, now int64) {
			h.delivered[m.ID] = now
			h.order = append(h.order, m.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	return h
}

// run advances until the network drains or maxCycles elapse; it returns the
// number of cycles executed.
func (h *harness) run(t *testing.T, maxCycles int) int {
	t.Helper()
	for cyc := 0; cyc < maxCycles; cyc++ {
		if h.eng.Quiesce() {
			return cyc
		}
		h.eng.Cycle(int64(cyc))
		mustCheck(t, h.eng)
	}
	if !h.eng.Quiesce() {
		t.Fatalf("network did not drain within %d cycles; %d in flight", maxCycles, h.eng.InFlight())
	}
	return maxCycles
}

func TestNewValidation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	fn, _ := routing.NewDOR(topo, 2)
	if _, err := New(topo, fn, Params{NumVCs: 0, BufDepth: 4}, Hooks{}); err == nil {
		t.Fatal("0 VCs accepted")
	}
	if _, err := New(topo, fn, Params{NumVCs: 2, BufDepth: 0}, Hooks{}); err == nil {
		t.Fatal("0 buffer depth accepted")
	}
	if _, err := New(topo, fn, Params{NumVCs: 3, BufDepth: 4}, Hooks{}); err == nil {
		t.Fatal("VC mismatch accepted")
	}
}

func TestSingleMessageLatency(t *testing.T) {
	// In an empty network, wormhole latency is hops + len - 1 cycles (one
	// cycle per hop for the head, then one flit per cycle).
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4})
	src := topo.NodeAt([]int{0, 0})
	dst := topo.NodeAt([]int{3, 3})
	const msgLen = 4
	h.eng.Inject(flit.Message{ID: 1, Src: int(src), Dst: int(dst), Len: msgLen, InjectTime: 0})
	h.run(t, 1000)
	wantTail := int64(topo.Distance(src, dst) + msgLen - 1)
	if got := h.delivered[1]; got != wantTail {
		t.Fatalf("tail delivered at cycle %d, want %d", got, wantTail)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4})
	h.eng.Inject(flit.Message{ID: 9, Src: 5, Dst: 5, Len: 3, InjectTime: 0})
	h.run(t, 100)
	if _, ok := h.delivered[9]; !ok {
		t.Fatal("self-send never delivered")
	}
}

func TestSingleFlitMessage(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4})
	h.eng.Inject(flit.Message{ID: 2, Src: 0, Dst: 15, Len: 1, InjectTime: 0})
	h.run(t, 100)
	if got, want := h.delivered[2], int64(topo.Distance(0, 15)); got != want {
		t.Fatalf("single-flit latency %d, want %d", got, want)
	}
}

func TestInjectEmptyMessagePanics(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty message")
		}
	}()
	h.eng.Inject(flit.Message{ID: 1, Len: 0})
}

func TestContentionSerializes(t *testing.T) {
	// Two long messages sharing every link with one VC: the second must wait
	// for the first's tail, so combined completion is roughly twice one
	// message, not pipelined together.
	topo := topology.MustCube([]int{8, 2}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 2})
	src := topo.NodeAt([]int{0, 0})
	dst := topo.NodeAt([]int{7, 0})
	const msgLen = 32
	h.eng.Inject(flit.Message{ID: 1, Src: int(src), Dst: int(dst), Len: msgLen, InjectTime: 0})
	h.eng.Inject(flit.Message{ID: 2, Src: int(src), Dst: int(dst), Len: msgLen, InjectTime: 0})
	h.run(t, 10000)
	d1, d2 := h.delivered[1], h.delivered[2]
	if d1 >= d2 {
		t.Fatalf("injection order not preserved: %d vs %d", d1, d2)
	}
	// Second message cannot start before the first's tail frees the channel,
	// so its delivery is at least msgLen cycles after the first's.
	if d2-d1 < msgLen {
		t.Fatalf("messages overlapped on one VC: d1=%d d2=%d", d1, d2)
	}
}

func TestVirtualChannelsInterleave(t *testing.T) {
	// With 2 VCs, two messages share the physical link bandwidth, so both
	// finish far sooner than serial execution but later than alone.
	topo := topology.MustCube([]int{8, 2}, false)
	const msgLen = 64
	run := func(numVCs int) int64 {
		h := newHarness(t, topo, "dor", Params{NumVCs: numVCs, BufDepth: 2})
		src := topo.NodeAt([]int{0, 0})
		dst := topo.NodeAt([]int{7, 0})
		h.eng.Inject(flit.Message{ID: 1, Src: int(src), Dst: int(dst), Len: msgLen, InjectTime: 0})
		h.eng.Inject(flit.Message{ID: 2, Src: int(src), Dst: int(dst), Len: msgLen, InjectTime: 0})
		h.run(t, 10000)
		d := h.delivered[2]
		return d
	}
	serial := run(1)
	shared := run(2)
	// Bandwidth is the bottleneck either way; VCs should not make the last
	// delivery later. (They chiefly help average latency/fairness.)
	if shared > serial {
		t.Fatalf("2 VCs finished later than 1 VC: %d vs %d", shared, serial)
	}
}

func TestInOrderDeliveryDeterministicRouting(t *testing.T) {
	// Same source, same destination, deterministic routing: delivery order
	// must match injection order.
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, "dor", Params{NumVCs: 2, BufDepth: 4})
	for i := 0; i < 20; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: 0, Dst: 10, Len: 5, InjectTime: 0})
	}
	h.run(t, 100000)
	for i := 1; i < len(h.order); i++ {
		if h.order[i] < h.order[i-1] {
			t.Fatalf("out of order delivery: %v", h.order)
		}
	}
}

// oldestAge returns the age of the oldest message in e's arena, the
// watchdog's starvation input when the engine runs on its own.
func oldestAge(e *Engine, now int64) int64 {
	var oldest int64
	for _, sl := range e.slots {
		if sl.live {
			oldest = max(oldest, now-sl.msg.InjectTime)
		}
	}
	return oldest
}

func testRandomTrafficDrains(t *testing.T, topo topology.Topology, fnName string, prm Params, msgs int) {
	h := newHarness(t, topo, fnName, prm)
	rng := sim.NewRNG(12345)
	wd := &sim.Watchdog{MaxAge: 200000, StallWindow: 5000}
	for i := 0; i < msgs; i++ {
		src := rng.Intn(topo.Nodes())
		dst := rng.Intn(topo.Nodes())
		ln := 1 + rng.Intn(31)
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: src, Dst: dst, Len: ln, InjectTime: 0})
	}
	for cyc := int64(0); !h.eng.Quiesce(); cyc++ {
		moved := h.eng.Cycle(cyc)
		mustCheck(t, h.eng)
		if err := wd.Check(cyc, moved, oldestAge(h.eng, cyc), h.eng.InFlight()); err != nil {
			t.Fatal(err)
		}
		if cyc > 1_000_000 {
			t.Fatalf("drain too slow; %d in flight", h.eng.InFlight())
		}
	}
	if len(h.delivered) != msgs {
		t.Fatalf("delivered %d of %d messages", len(h.delivered), msgs)
	}
}

// TestTheoremWormholeDeadlockFree is the dynamic half of the wormhole
// substrate's deadlock-freedom requirement (the proofs of Theorems 1 and 2
// assume it): heavy random traffic on every supported configuration drains
// completely under watchdog supervision.
func TestTheoremWormholeDeadlockFree(t *testing.T) {
	mesh := topology.MustCube([]int{4, 4}, false)
	torus := topology.MustCube([]int{4, 4}, true)
	cases := []struct {
		name string
		topo topology.Topology
		fn   string
		prm  Params
	}{
		{"dor-mesh-1vc", mesh, "dor", Params{NumVCs: 1, BufDepth: 2}},
		{"dor-mesh-2vc", mesh, "dor", Params{NumVCs: 2, BufDepth: 4}},
		{"dor-torus-2vc", torus, "dor", Params{NumVCs: 2, BufDepth: 2}},
		{"duato-mesh-2vc", mesh, "duato", Params{NumVCs: 2, BufDepth: 2}},
		{"duato-torus-3vc", torus, "duato", Params{NumVCs: 3, BufDepth: 4}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			testRandomTrafficDrains(t, c.topo, c.fn, c.prm, 600)
		})
	}
}

func TestCountersConsistent(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 2, BufDepth: 4})
	totalFlits := int64(0)
	for i := 0; i < 50; i++ {
		ln := 1 + i%7
		totalFlits += int64(ln)
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: i % 16, Dst: (i * 5) % 16, Len: ln, InjectTime: 0})
	}
	h.run(t, 100000)
	if h.eng.MsgsDelivered != 50 {
		t.Fatalf("MsgsDelivered = %d", h.eng.MsgsDelivered)
	}
	if h.eng.FlitsDelivered != totalFlits {
		t.Fatalf("FlitsDelivered = %d, want %d", h.eng.FlitsDelivered, totalFlits)
	}
	if h.eng.FlitsMoved < totalFlits {
		t.Fatalf("FlitsMoved = %d < flits delivered %d", h.eng.FlitsMoved, totalFlits)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Identical injections produce identical delivery times across runs.
	run := func() map[flit.MsgID]int64 {
		topo := topology.MustCube([]int{4, 4}, true)
		h := newHarness(t, topo, "duato", Params{NumVCs: 3, BufDepth: 4})
		rng := sim.NewRNG(777)
		for i := 0; i < 100; i++ {
			h.eng.Inject(flit.Message{
				ID: flit.MsgID(i), Src: rng.Intn(16), Dst: rng.Intn(16),
				Len: 1 + rng.Intn(15), InjectTime: 0,
			})
		}
		h.run(t, 1_000_000)
		return h.delivered
	}
	a, b := run(), run()
	for id, ta := range a {
		if b[id] != ta {
			t.Fatalf("message %d delivered at %d vs %d", id, ta, b[id])
		}
	}
}

func TestQueueLenAndInFlight(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	h := newHarness(t, topo, "dor", Params{NumVCs: 1, BufDepth: 4})
	for i := 0; i < 3; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: 0, Dst: 15, Len: 10, InjectTime: 0})
	}
	if h.eng.QueueLen(0) != 3 {
		t.Fatalf("QueueLen = %d", h.eng.QueueLen(0))
	}
	if h.eng.InFlight() != 3 {
		t.Fatalf("InFlight = %d", h.eng.InFlight())
	}
	h.run(t, 10000)
	if h.eng.QueueLen(0) != 0 || h.eng.InFlight() != 0 {
		t.Fatal("queues not drained")
	}
}

// newHarnessP builds a harness with explicit params (helper shared with
// invariants_test.go).
func newHarnessP(t *testing.T, topo topology.Topology, fnName string, prm Params) *harness {
	return newHarness(t, topo, fnName, prm)
}

// TestProgressOncePerMovingCycle pins the progress contract: Cycle reports
// true for every cycle in which a flit moved (self-sends included), and
// false for a cycle where nothing moved.
func TestProgressOncePerMovingCycle(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, "dor", Params{NumVCs: 2, BufDepth: 2})
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		if i%10 == 0 {
			dst = src
		}
		h.eng.Inject(flit.Message{ID: flit.MsgID(i), Src: src, Dst: dst, Len: 1 + rng.Intn(12), InjectTime: 0})
	}
	moving, idle := 0, 0
	for cyc := int64(0); cyc < 100_000; cyc++ {
		moved := h.eng.FlitsMoved
		got := h.eng.Cycle(cyc)
		want := h.eng.FlitsMoved != moved
		if want {
			moving++
		} else {
			idle++
		}
		if got != want {
			t.Fatalf("cycle %d: Cycle reported %v, want %v (flits moved %d)", cyc, got, want, h.eng.FlitsMoved-moved)
		}
		if h.eng.Quiesce() && idle > 10 {
			break
		}
	}
	if !h.eng.Quiesce() || moving == 0 {
		t.Fatalf("run did not drain (%d moving cycles)", moving)
	}
}

// TestProgressOnRecoveryAbort: an abort is progress for the watchdog even
// in a cycle where no flit moves, so Cycle reports it.
func TestProgressOnRecoveryAbort(t *testing.T) {
	topo := topology.MustCube([]int{8, 2}, true)
	h := newHarness(t, topo, "dor-nodateline", Params{NumVCs: 1, BufDepth: 2})
	if err := h.eng.EnableRecovery(RecoveryParams{Timeout: 64}); err != nil {
		t.Fatal(err)
	}
	ringDeadlockLoad(h, topo)
	stillAborts := 0
	for cyc := int64(0); !h.eng.Quiesce(); cyc++ {
		if cyc > 2_000_000 {
			t.Fatal("recovery did not drain the deadlock")
		}
		moved, aborts := h.eng.FlitsMoved, h.eng.RecoveryAborts()
		got := h.eng.Cycle(cyc)
		aborted := h.eng.RecoveryAborts() != aborts
		if h.eng.FlitsMoved == moved && aborted {
			stillAborts++
		}
		if want := aborted || h.eng.FlitsMoved != moved; got != want {
			t.Fatalf("cycle %d: Cycle reported %v, want %v", cyc, got, want)
		}
	}
	if stillAborts == 0 {
		t.Fatal("no abort happened in a cycle without flit movement")
	}
}
