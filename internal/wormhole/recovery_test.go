package wormhole

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ringDeadlockLoad injects messages around a torus ring so that, with
// dateline-free DOR and a single VC, the channel dependency cycle actually
// fills and deadlocks: every node sends half way around the ring in the Plus
// direction with messages long enough to span several routers.
func ringDeadlockLoad(h *harness, topo topology.Geometry) int {
	k := topo.Radix(0)
	id := flit.MsgID(1)
	for x := 0; x < k; x++ {
		src := topo.NodeAt([]int{x, 0})
		dst := topo.NodeAt([]int{(x + k/2) % k, 0})
		h.eng.Inject(flit.Message{ID: id, Src: int(src), Dst: int(dst), Len: 32, InjectTime: 0})
		id++
	}
	return k
}

func TestUnsafeRoutingActuallyDeadlocks(t *testing.T) {
	// Sanity for the whole E16 premise: without recovery, the dateline-free
	// torus really deadlocks (the network stalls with work in flight).
	topo := topology.MustCube([]int{8, 2}, true)
	h := newHarness(t, topo, "dor-nodateline", Params{NumVCs: 1, BufDepth: 2})
	n := ringDeadlockLoad(h, topo)
	stalled := false
	var lastMoved int64
	for cyc := int64(0); cyc < 5000; cyc++ {
		before := h.eng.FlitsMoved
		h.eng.Cycle(cyc)
		if h.eng.FlitsMoved != before {
			lastMoved = cyc
		}
		if h.eng.Quiesce() {
			t.Fatalf("expected deadlock, but all %d messages delivered", n)
		}
		if cyc-lastMoved > 1000 {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("network neither drained nor visibly deadlocked")
	}
}

func TestRecoveryBreaksDeadlock(t *testing.T) {
	topo := topology.MustCube([]int{8, 2}, true)
	h := newHarness(t, topo, "dor-nodateline", Params{NumVCs: 1, BufDepth: 2})
	if err := h.eng.EnableRecovery(RecoveryParams{Timeout: 64}); err != nil {
		t.Fatal(err)
	}
	n := ringDeadlockLoad(h, topo)
	h.run(t, 2_000_000)
	if len(h.delivered) != n {
		t.Fatalf("delivered %d of %d", len(h.delivered), n)
	}
	if h.eng.RecoveryAborts() == 0 {
		t.Fatal("no aborts: the deadlock never formed or recovery never fired")
	}
}

func TestRecoveryRandomTraffic(t *testing.T) {
	// Random traffic over the unsafe function with recovery: everything
	// delivers, state is clean afterwards.
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, "dor-nodateline", Params{NumVCs: 1, BufDepth: 2})
	if err := h.eng.EnableRecovery(RecoveryParams{Timeout: 128}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	const msgs = 400
	for i := 0; i < msgs; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i + 1), Src: rng.Intn(16), Dst: rng.Intn(16), Len: 1 + rng.Intn(24), InjectTime: 0})
	}
	h.run(t, 5_000_000)
	if len(h.delivered) != msgs {
		t.Fatalf("delivered %d of %d", len(h.delivered), msgs)
	}
	// Post-drain invariants: credits restored, no stale allocations.
	for ch := range h.eng.chans {
		if c := h.eng.credits(ch); c != 2 {
			t.Fatalf("channel %d credits = %d", ch, c)
		}
	}
	for ch, o := range h.eng.chans {
		if owner := o.owner(); owner != -1 {
			t.Fatalf("channel %d still allocated to %d", ch, owner)
		}
	}
	for i := range h.eng.chans {
		if h.eng.chans[i].count != 0 || h.eng.chans[i].phase != vcIdle {
			t.Fatalf("VC %d not clean after drain", i)
		}
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		topo := topology.MustCube([]int{4, 4}, true)
		h := newHarness(t, topo, "dor-nodateline", Params{NumVCs: 1, BufDepth: 2})
		if err := h.eng.EnableRecovery(RecoveryParams{Timeout: 96}); err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(11)
		for i := 0; i < 200; i++ {
			h.eng.Inject(flit.Message{ID: flit.MsgID(i + 1), Src: rng.Intn(16), Dst: rng.Intn(16), Len: 1 + rng.Intn(16), InjectTime: 0})
		}
		h.run(t, 5_000_000)
		var sum int64
		for id, at := range h.delivered {
			sum += at * int64(id%7+1)
		}
		return sum, h.eng.RecoveryAborts()
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 || a1 != a2 {
		t.Fatalf("recovery not deterministic: (%d,%d) vs (%d,%d)", s1, a1, s2, a2)
	}
}

func TestRecoveryDoesNotFireOnSafeRouting(t *testing.T) {
	// With a deadlock-free function and light traffic, the timeout should
	// never trip (messages always progress before it).
	topo := topology.MustCube([]int{4, 4}, true)
	h := newHarness(t, topo, "dor", Params{NumVCs: 2, BufDepth: 4})
	if err := h.eng.EnableRecovery(RecoveryParams{Timeout: 50_000}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i + 1), Src: rng.Intn(16), Dst: rng.Intn(16), Len: 1 + rng.Intn(16), InjectTime: 0})
	}
	h.run(t, 1_000_000)
	if h.eng.RecoveryAborts() != 0 {
		t.Fatalf("%d spurious aborts on a deadlock-free network", h.eng.RecoveryAborts())
	}
}

func TestEnableRecoveryValidation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	fn, _ := routing.NewDOR(topo, 1)
	e, err := New(topo, fn, Params{NumVCs: 1, BufDepth: 1}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableRecovery(RecoveryParams{Timeout: 0}); err == nil {
		t.Fatal("zero timeout accepted")
	}
	if err := e.EnableRecovery(RecoveryParams{Timeout: 10}); err != nil {
		t.Fatal(err)
	}
	if e.recovery.prm.MaxBackoff != 80 {
		t.Fatalf("default MaxBackoff = %d", e.recovery.prm.MaxBackoff)
	}
}

func TestDORNoDatelineHasCyclicCDG(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := routing.New("dor-nodateline", topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if routing.BuildCDG(topo, fn).FindCycle() == nil {
		t.Fatal("dateline-free DOR should have a cyclic dependency graph on a torus")
	}
}
