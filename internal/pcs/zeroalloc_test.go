package pcs

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/topology"
)

// zeroAllocRound is one full PCS churn cycle on a k x k torus: launch a batch
// of probes, cycle until every setup resolves, tear down every established
// circuit, and cycle until the network is clean. After warmup the probe and
// circuit pools, the dense history stores, the ack/teardown/release value
// slices (and their spill buffers), and the circuits map are all at steady
// capacity, so a round touches every protocol phase without heap allocation.
// Completions report through the registered handlers, the path the protocol
// layer runs: LaunchProbeTagged + SetProbeDone and TeardownNotify +
// SetCircuitFreed.
type zeroAllocHarness struct {
	e       *Engine
	nodes   int
	now     int64
	results [16]SetupResult
	nres    int
	torn    int
}

// probeDone is the harness's SetProbeDone handler.
func (h *zeroAllocHarness) probeDone(_, _ topology.Node, _ int, _ bool, _ int64, r SetupResult) {
	h.results[h.nres] = r
	h.nres++
}

// circuitFreed is the harness's SetCircuitFreed handler.
func (h *zeroAllocHarness) circuitFreed(topology.Node, topology.Node, circuit.ID) { h.torn++ }

func newZeroAllocHarness(tb testing.TB, k int) *zeroAllocHarness {
	tb.Helper()
	topo := topology.MustCube([]int{k, k}, true)
	e, err := New(topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	if err != nil {
		tb.Fatal(err)
	}
	h := &zeroAllocHarness{e: e, nodes: k * k}
	e.SetProbeDone(h.probeDone)
	e.SetCircuitFreed(h.circuitFreed)
	return h
}

func (h *zeroAllocHarness) round(tb testing.TB) {
	h.nres, h.torn = 0, 0
	step := h.nodes / len(h.results)
	for i := 0; i < len(h.results); i++ {
		src := topology.Node(i * step)
		dst := topology.Node((i*step + h.nodes*27/64) % h.nodes)
		h.e.LaunchProbeTagged(src, dst, i%2, false, 0)
	}
	for c := 0; c < 10000 && h.nres < len(h.results); c++ {
		h.e.Cycle(h.now)
		h.now++
	}
	if h.nres < len(h.results) {
		tb.Fatal("probes did not resolve")
	}
	established := 0
	for i := 0; i < h.nres; i++ {
		if h.results[i].OK {
			h.e.TeardownNotify(h.results[i].Circuit)
			established++
		}
	}
	for c := 0; c < 10000 && h.e.NumCircuits() > 0; c++ {
		h.e.Cycle(h.now)
		h.now++
	}
	if h.e.NumCircuits() > 0 || h.torn != established {
		tb.Fatalf("circuits did not tear down: %d left, %d of %d freed", h.e.NumCircuits(), h.torn, established)
	}
}

// TestZeroAllocPCSProbeCycle asserts that steady-state probe setup and
// circuit teardown allocate nothing once the pools are warm.
func TestZeroAllocPCSProbeCycle(t *testing.T) {
	h := newZeroAllocHarness(t, 8)
	round := func() { h.round(t) }
	for i := 0; i < 3; i++ {
		round()
	}
	established := 0
	for i := 0; i < h.nres; i++ {
		if h.results[i].OK {
			established++
		}
	}
	if established == 0 {
		t.Fatal("no circuits established during warmup")
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%.1f allocs per setup/teardown round, want 0", allocs)
	}
}

// TestZeroAllocForceWait covers the CLRP Force phase: a Force probe blocked
// by an established circuit consults the local cache through the wanted
// predicate, sends a release flit, waits, and proceeds once the victim is
// torn down — all without heap allocation (the predicate must not be a
// per-call closure).
func TestZeroAllocForceWait(t *testing.T) {
	topo := topology.MustCube([]int{4, 2}, false)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)
	var now int64
	var res SetupResult
	resolved, asked := false, 0
	e.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, _ int64, r SetupResult) { res, resolved = r, true })
	host.local = func(_ topology.Node, wanted func(Channel) bool) (Channel, bool) {
		asked++
		wanted(res.First)
		return Channel{}, false // no local victim: the release travels
	}
	host.remote = e.TeardownNotify
	setup := func(src, dst topology.Node, force bool) {
		resolved = false
		e.LaunchProbeTagged(src, dst, 0, force, 0)
		for c := 0; c < 500 && !resolved; c++ {
			e.Cycle(now)
			now++
		}
		if !resolved || !res.OK {
			t.Fatalf("probe %d->%d (force %v) did not establish", src, dst, force)
		}
	}
	round := func() {
		setup(1, 3, false) // blocks the line 0 -> 3
		setup(0, 3, true)  // waits for its release
		e.TeardownNotify(res.Circuit)
		for c := 0; c < 500 && e.NumCircuits() > 0; c++ {
			e.Cycle(now)
			now++
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	waits := e.Ctr.ForceWaits
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%.1f allocs per Force-wait round, want 0", allocs)
	}
	if e.Ctr.ForceWaits == waits || asked == 0 {
		t.Fatalf("rounds never entered the Force wait (waits %d, local asks %d)", e.Ctr.ForceWaits, asked)
	}
}

// searchHarness is a contended PCS round on a k x k torus with one wave
// switch: fifteen probes at once towards the middle node, which has four
// input channels, every other probe a Force probe. Probes misroute and
// backtrack until their search is exhausted; Force probes wait for release
// flits, which the host answers by tearing the victim down. At k = 4 the
// sources are all the other nodes; at larger k they lie evenly spread, and
// the exhausted searches cover far more of the network.
type searchHarness struct {
	e       *Engine
	k       int
	now     int64
	results [15]SetupResult
	nres    int
	// steps counts probe steps: the probes in flight summed before each
	// Cycle.
	steps int64
	// first is the ID of the round's first probe; peak[i] is the largest
	// History Store the round's probe first+i held before any Cycle.
	first flit.ProbeID
	peak  [15]int
}

// probeDone is the harness's SetProbeDone handler.
func (h *searchHarness) probeDone(_, _ topology.Node, _ int, _ bool, _ int64, r SetupResult) {
	h.results[h.nres] = r
	h.nres++
}

// warmSearchRounds is how many searchHarness rounds it takes the probe
// frames, History Stores and pools to reach their steady capacity (on the
// 4x4 torus the eighth is the last round to allocate).
const warmSearchRounds = 8

func newSearchHarness(tb testing.TB, k int) *searchHarness {
	tb.Helper()
	host := &fakeHost{}
	e, err := New(topology.MustCube([]int{k, k}, true), Params{NumSwitches: 1, MaxMisroutes: 2}, host)
	if err != nil {
		tb.Fatal(err)
	}
	h := &searchHarness{e: e, k: k}
	e.SetProbeDone(h.probeDone)
	host.remote = e.TeardownNotify
	return h
}

func (h *searchHarness) round(tb testing.TB) {
	h.nres = 0
	h.peak = [15]int{}
	dst := topology.Node(h.k*h.k/2 + h.k/2)
	for i := 0; i < len(h.results); i++ {
		src := topology.Node(i * h.k * h.k / 16)
		if src >= dst {
			src++
		}
		id := h.e.LaunchProbeTagged(src, dst, 0, i%2 == 1, 0)
		if i == 0 {
			h.first = id
		}
	}
	for c := 0; c < 10000 && h.nres < len(h.results); c++ {
		h.steps += int64(h.e.ActiveProbes())
		for _, p := range h.e.probes {
			if i := p.id - h.first; h.peak[i] < len(p.histNodes) {
				h.peak[i] = len(p.histNodes)
			}
		}
		h.e.Cycle(h.now)
		h.now++
	}
	if h.nres < len(h.results) {
		tb.Fatal("probes did not resolve")
	}
	for i := 0; i < h.nres; i++ {
		if _, live := h.e.CircuitByID(h.results[i].Circuit); h.results[i].OK && live {
			h.e.TeardownNotify(h.results[i].Circuit)
		}
	}
	for c := 0; c < 10000 && h.e.NumCircuits() > 0; c++ {
		h.e.Cycle(h.now)
		h.now++
	}
	if h.e.NumCircuits() > 0 {
		tb.Fatal("circuits did not tear down")
	}
}

// meanPeak is the mean over the last round's probes of the largest History
// Store each held: the nodes a probe searched from.
func (h *searchHarness) meanPeak() float64 {
	sum := 0
	for _, n := range h.peak {
		sum += n
	}
	return float64(sum) / float64(len(h.peak))
}

// TestZeroAllocProbeSearch asserts that a contended search — misroutes,
// backtracks onto frames already built, Force waits and the release flits
// they send — allocates nothing once the probe frames and pools are warm.
func TestZeroAllocProbeSearch(t *testing.T) {
	h := newSearchHarness(t, 4)
	round := func() { h.round(t) }
	for i := 0; i < warmSearchRounds; i++ {
		round()
	}
	before := h.e.Ctr
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%.1f allocs per contended search round, want 0", allocs)
	}
	after := h.e.Ctr
	if after.Backtracks == before.Backtracks || after.ForceWaits == before.ForceWaits || after.ReleasesSent == before.ReleasesSent {
		t.Fatalf("rounds did not search under contention: backtracks %d, Force waits %d, releases %d",
			after.Backtracks-before.Backtracks, after.ForceWaits-before.ForceWaits, after.ReleasesSent-before.ReleasesSent)
	}
}

// TestLongSearchHistories holds BenchmarkProbeSearch's 16x16 case to what
// it is there for: searches whose History Stores grow past 20 nodes, so
// the cost of finding a node's entry shows.
func TestLongSearchHistories(t *testing.T) {
	h := newSearchHarness(t, 16)
	h.round(t)
	if m := h.meanPeak(); m < 20 {
		t.Fatalf("probes searched from %.1f nodes on average, want at least 20", m)
	}
}

// BenchmarkProbeSearch measures one contended round of searchHarness:
// fifteen probes with backtracks and Force waits, then teardown, on a 4x4
// torus and on a 16x16 one where a probe's History Store grows past 20
// nodes. allocs/op must report 0; ns/probe-step is the round's time over
// its probe steps (hops, misroutes, backtracks and waits alike) and
// visited/probe the mean of each probe's largest History Store.
func BenchmarkProbeSearch(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("torus%dx%d", k, k), func(b *testing.B) {
			h := newSearchHarness(b, k)
			for i := 0; i < warmSearchRounds; i++ {
				h.round(b)
			}
			h.steps = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.round(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(h.steps), "ns/probe-step")
			b.ReportMetric(h.meanPeak(), "visited/probe")
		})
	}
}

// BenchmarkProbeStep measures one full launch/resolve/teardown round of 16
// probes on a 16x16 torus; allocs/op must report 0.
func BenchmarkProbeStep(b *testing.B) {
	h := newZeroAllocHarness(b, 16)
	h.round(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.round(b)
	}
}
