package wormhole

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/routing"
	"repro/internal/topology"
)

// zeroAllocEngine builds an 8x8 torus engine on the production routing path
// (the table routing.Select picks, as core.New does) with a non-allocating
// delivery hook, mirroring how core.Fabric wires the engine.
func zeroAllocEngine(tb testing.TB, prm Params) (*Engine, *int) {
	tb.Helper()
	topo := topology.MustCube([]int{8, 8}, true)
	fn, err := routing.New("dor", topo, prm.NumVCs)
	if err != nil {
		tb.Fatal(err)
	}
	fn, _ = routing.Select(fn, topo)
	delivered := 0
	eng, err := New(topo, fn, prm, Hooks{
		Delivered: func(m flit.Message, now int64) { delivered++ },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, &delivered
}

// pumpDrain injects one 4-flit message per node (a static permutation-ish
// pattern with no self-sends) and cycles until the network drains. All state
// the run grows — slot arena, injection rings, headSlots rings, credit pipe,
// arrival scratch — reaches steady capacity after the first call, so later
// calls exercise the full inject/route/traverse/deliver path without
// allocating.
func pumpDrain(tb testing.TB, e *Engine, now *int64, nextID *flit.MsgID) {
	const nodes = 64
	for n := 0; n < nodes; n++ {
		dst := (n*17 + 5) % nodes
		if dst == n {
			dst = (dst + 1) % nodes
		}
		*nextID++
		e.Inject(flit.Message{ID: *nextID, Src: n, Dst: dst, Len: 4, InjectTime: *now})
	}
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
		{"fullScanOracle", Params{NumVCs: 2, BufDepth: 4, DisableActivityTracking: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, delivered := zeroAllocEngine(t, tc.prm)
			var now int64
			var nextID flit.MsgID
			round := func() { pumpDrain(t, eng, &now, &nextID) }
			// Warm every ring and the slot arena to steady-state capacity.
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
}

// TestActiveSetTracksPhases checks the active-set invariant directly: the
// set is empty at rest, non-empty while messages are in flight, and empty
// again once the network drains — across repeated rounds, so stale
// memberships (which would silently degrade the speedup) cannot survive.
func TestActiveSetTracksPhases(t *testing.T) {
	eng, _ := zeroAllocEngine(t, DefaultParams())
	var now int64
	var nextID flit.MsgID
	if got := eng.ActivePorts(); got != 0 {
		t.Fatalf("fresh engine has %d active ports, want 0", got)
	}
	for round := 0; round < 3; round++ {
		pumpDrain(t, eng, &now, &nextID)
		if got := eng.ActivePorts(); got != 0 {
			t.Fatalf("round %d: drained engine has %d active ports, want 0", round, got)
		}
	}
	eng.Inject(flit.Message{ID: nextID + 1, Src: 0, Dst: 9, Len: 4, InjectTime: now})
	if got := eng.ActivePorts(); got != 1 {
		t.Fatalf("after one injection: %d active ports, want 1", got)
	}
}

// BenchmarkWormholeCycle measures the steady-state cost of one engine cycle
// under sustained load on an 8x8 torus; allocs/op must report 0.
func BenchmarkWormholeCycle(b *testing.B) {
	eng, _ := zeroAllocEngine(b, DefaultParams())
	var now int64
	var nextID flit.MsgID
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
}

// BenchmarkWormholeIdleCycle measures one cycle of a completely idle engine —
// the cost model the activity-driven design targets: active-set iteration
// makes it O(1) regardless of network size, where the full-scan oracle
// (the /fullScan variant) pays O(ports) every cycle.
func BenchmarkWormholeIdleCycle(b *testing.B) {
	for _, tc := range []struct {
		name string
		prm  Params
	}{
		{"activeSet", DefaultParams()},
		{"fullScan", Params{NumVCs: 2, BufDepth: 4, DisableActivityTracking: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng, _ := zeroAllocEngine(b, tc.prm)
			var now int64
			var nextID flit.MsgID
			// One drained round leaves every ring at steady capacity and the
			// active set empty.
			pumpDrain(b, eng, &now, &nextID)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Cycle(now)
				now++
			}
		})
	}
}
