package wormhole

import (
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/topology"
)

// zeroAllocEngine builds an 8x8 torus engine on the routing function core.New
// installs, with a non-allocating delivery hook, mirroring how core.Fabric
// wires the engine.
func zeroAllocEngine(tb testing.TB, prm Params) (*Engine, *int) {
	tb.Helper()
	topo := topology.MustCube([]int{8, 8}, true)
	fn, err := routing.New("dor", topo, prm.NumVCs)
	if err != nil {
		tb.Fatal(err)
	}
	delivered := 0
	eng, err := New(topo, fn, prm, Hooks{
		Delivered: func(m flit.Message, now int64) { delivered++ },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, &delivered
}

// pumpRound injects one 4-flit message per node of the 8x8 engine, a
// static permutation-ish pattern with no self-sends.
func pumpRound(e *Engine, now int64, nextID *flit.MsgID) {
	const nodes = 64
	for n := 0; n < nodes; n++ {
		dst := (n*17 + 5) % nodes
		if dst == n {
			dst = (dst + 1) % nodes
		}
		*nextID++
		e.Inject(flit.Message{ID: *nextID, Src: n, Dst: dst, Len: 4, InjectTime: now})
	}
}

// pumpDrain injects one pumpRound and cycles until the network drains. All
// state the run grows — slot arena, injection queues, credit pipe —
// reaches steady capacity after the first call, so later calls exercise
// the full inject/route/traverse/deliver path without allocating.
func pumpDrain(tb testing.TB, e *Engine, now *int64, nextID *flit.MsgID) {
	pumpRound(e, *now, nextID)
	for i := 0; i < 10000; i++ {
		if e.Quiesce() {
			return
		}
		e.Cycle(*now)
		*now++
	}
	tb.Fatal("network did not drain")
}

// TestZeroAllocWormholeCycle asserts the tentpole contract: after warmup,
// a full inject-route-traverse-deliver round trip performs zero heap
// allocations per cycle.
func TestZeroAllocWormholeCycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		prm  Params
	}{
		// The default cases run the active-set engine: every pump-and-drain
		// round churns the whole membership bitmap (64 injection activations,
		// per-hop VC activations/deactivations) and the busy dirty lists, so
		// zero allocs here proves the active-set maintenance itself is free.
		{"default", DefaultParams()},
		{"creditDelay", Params{NumVCs: 2, BufDepth: 4, CreditDelay: 2}},
		{"routeDelay", Params{NumVCs: 2, BufDepth: 4, RouteDelay: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, delivered := zeroAllocEngine(t, tc.prm)
			var now int64
			var nextID flit.MsgID
			round := func() { pumpDrain(t, eng, &now, &nextID) }
			// Warm every queue and the slot arena to steady-state capacity.
			for i := 0; i < 3; i++ {
				round()
			}
			if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
				t.Errorf("%.1f allocs per pump-and-drain round, want 0", allocs)
			}
			if *delivered == 0 {
				t.Fatal("no messages delivered")
			}
		})
	}
	// BenchmarkWormholeCycle's loaded shapes: 16x16_uniform, where hundreds
	// of visits a cycle find an empty buffer, no credit or a claimed port,
	// and 32x32_hybrid, whose 8-flit messages commit a head every few
	// flits.
	for _, c := range loadedShapes {
		t.Run(c.name, func(t *testing.T) {
			eng, src := c.build(t)
			var now int64
			step := func() {
				src.tick(eng, now)
				eng.Cycle(now)
				now++
			}
			for now < 5000 {
				step()
			}
			// The unbounded source queues and the slot arena still grow a
			// few times per thousand cycles after warm-up, each time one
			// node's backlog or the in-flight count meets a new peak; give
			// them room past any peak of the measured window.
			for n := range eng.inj {
				eng.inj[n].queue = slices.Grow(eng.inj[n].queue, 64)
			}
			eng.slots = slices.Grow(eng.slots, len(eng.slots))
			eng.freeSlots = slices.Grow(eng.freeSlots, cap(eng.slots))
			moved := eng.FlitsMoved
			if allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 2000; i++ {
					step()
				}
			}); allocs != 0 {
				t.Errorf("%.0f allocations in 2000 loaded cycles, want 0", allocs)
			}
			if eng.FlitsMoved-moved < 4000*c.minMoved {
				t.Fatalf("only %d flits moved in 4000 cycles: the load is too light", eng.FlitsMoved-moved)
			}
		})
	}
}

// loadedShapes are the sustained loads BenchmarkWormholeCycle times and
// TestZeroAllocWormholeCycle holds to 0 allocations, each on duato over 3
// VCs of depth 4, the benchmark workloads' router. 16x16_uniform is the
// wh_uniform_16x16 workload's shape: uniform 32-flit messages at 0.15
// flits/node/cycle. 32x32_hybrid is hybrid_32x32's wormhole traffic: its
// 8-flit messages (the long ones ride circuits) at 0.0176 flits/node/cycle
// (0.08 offered, of which 8-flit messages carry 7.2 of every 32.8 flits),
// a sparse active set on the largest fabric. minMoved bounds the flits a
// cycle moves from below, so a shape cannot go idle unnoticed.
var loadedShapes = []struct {
	name     string
	minMoved int64
	build    func(testing.TB) (*Engine, *uniformSource)
}{
	{"16x16_uniform", 100, func(tb testing.TB) (*Engine, *uniformSource) {
		return torusEngine(tb, 16, "duato", Params{NumVCs: 3, BufDepth: 4}, nil), newUniformSource(1, 256, 32, 0.15)
	}},
	{"32x32_hybrid", 100, func(tb testing.TB) (*Engine, *uniformSource) {
		return torusEngine(tb, 32, "duato", Params{NumVCs: 3, BufDepth: 4}, nil), newUniformSource(1, 1024, 8, 0.0176)
	}},
}

// TestActiveSetTracksPhases checks the active-set invariant directly: the
// set is empty at rest, non-empty while messages are in flight, and empty
// again once the network drains — across repeated rounds, so stale
// memberships (which would silently degrade the speedup) cannot survive.
// Check holds the derived state against the port phases after every
// cycle.
func TestActiveSetTracksPhases(t *testing.T) {
	eng, _ := zeroAllocEngine(t, DefaultParams())
	var now int64
	var nextID flit.MsgID
	if got := eng.ActivePorts(); got != 0 {
		t.Fatalf("fresh engine has %d active ports, want 0", got)
	}
	mustCheck(t, eng)
	for round := 0; round < 3; round++ {
		pumpRound(eng, now, &nextID)
		mustCheck(t, eng)
		for i := 0; !eng.Quiesce(); i++ {
			if i == 10000 {
				t.Fatal("network did not drain")
			}
			eng.Cycle(now)
			now++
			mustCheck(t, eng)
		}
		if got := eng.ActivePorts(); got != 0 {
			t.Fatalf("round %d: drained engine has %d active ports, want 0", round, got)
		}
	}
	eng.Inject(flit.Message{ID: nextID + 1, Src: 0, Dst: 9, Len: 4, InjectTime: now})
	if got := eng.ActivePorts(); got != 1 {
		t.Fatalf("after one injection: %d active ports, want 1", got)
	}
	mustCheck(t, eng)
}

// BenchmarkWormholeCycle measures the steady-state cost of one engine cycle
// under sustained load; allocs/op must report 0, even at -benchtime 1x.
// The 8x8 case replays a fixed 4-flit pattern (one drained warm-up round
// grows every buffer first). The loadedShapes cases are the wormhole
// traffic of two benchmark workloads, warmed up for 5000 cycles; their
// per-cycle cost includes the source's Bernoulli draws, one per node.
func BenchmarkWormholeCycle(b *testing.B) {
	b.Run("8x8", func(b *testing.B) {
		eng, _ := zeroAllocEngine(b, DefaultParams())
		var now int64
		var nextID flit.MsgID
		pumpDrain(b, eng, &now, &nextID)
		const nodes = 64
		inject := func() {
			for n := 0; n < nodes; n++ {
				dst := (n*17 + 5) % nodes
				if dst == n {
					dst = (dst + 1) % nodes
				}
				nextID++
				eng.Inject(flit.Message{ID: nextID, Src: n, Dst: dst, Len: 4, InjectTime: now})
			}
		}
		inject()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if eng.Quiesce() {
				b.StopTimer()
				inject()
				b.StartTimer()
			}
			eng.Cycle(now)
			now++
		}
	})
	for _, c := range loadedShapes {
		b.Run(c.name, func(b *testing.B) {
			eng, src := c.build(b)
			var now int64
			for ; now < 5000; now++ {
				src.tick(eng, now)
				eng.Cycle(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.tick(eng, now)
				eng.Cycle(now)
				now++
			}
		})
	}
}

// BenchmarkWormholeIdleCycle measures one cycle of a completely idle engine.
// Both active-set passes find their set empty and return without loading a
// bitmap word, so the /activeSet cost is the same on the 8x8 torus (576
// ports) and the /32x32 torus (13,312 ports).
func BenchmarkWormholeIdleCycle(b *testing.B) {
	b.Run("activeSet", func(b *testing.B) {
		eng, _ := zeroAllocEngine(b, DefaultParams())
		var now int64
		var nextID flit.MsgID
		// One drained round leaves every queue at steady capacity and the
		// active set empty.
		pumpDrain(b, eng, &now, &nextID)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Cycle(now)
			now++
		}
	})
	b.Run("32x32", func(b *testing.B) {
		// The wh_uniform shape (duato over 3 VCs) at 32x32, idle after a
		// drained burst of uniform traffic.
		eng := torusEngine(b, 32, "duato", Params{NumVCs: 3, BufDepth: 4}, nil)
		src := newUniformSource(1, 1024, 32, 0.05)
		var now int64
		for ; now < 200; now++ {
			src.tick(eng, now)
			eng.Cycle(now)
		}
		for ; !eng.Quiesce(); now++ {
			eng.Cycle(now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Cycle(now)
			now++
		}
	})
}
