package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/topology"
)

// testFabric is a fabric whose probe outcomes Hooks.ProbeDone collects by
// probe ID.
type testFabric struct {
	*Fabric
	probes map[flit.ProbeID]*pcs.SetupResult
}

// newFabric builds a fabric with hooks; hooks.ProbeDone must be nil.
func newFabric(t *testing.T, topo topology.Topology, prm Params, hooks Hooks) *testFabric {
	t.Helper()
	tf := &testFabric{probes: map[flit.ProbeID]*pcs.SetupResult{}}
	hooks.ProbeDone = func(_, _ topology.Node, _ int, _ bool, _ int64, r pcs.SetupResult) { tf.probes[r.Probe] = &r }
	f, err := New(topo, prm, hooks)
	if err != nil {
		t.Fatal(err)
	}
	tf.Fabric = f
	return tf
}

// probe launches a probe and cycles the fabric until it resolves (at most
// 500 cycles), returning its outcome or nil.
func (f *testFabric) probe(now *int64, src, dst topology.Node, sw int, force bool) *pcs.SetupResult {
	id := f.PCS.LaunchProbeTagged(src, dst, sw, force, 0)
	for i := 0; i < 500 && f.probes[id] == nil; i++ {
		f.Cycle(*now)
		*now++
	}
	return f.probes[id]
}

func run(f *testFabric, from *int64, cycles int64) {
	for i := int64(0); i < cycles; i++ {
		f.Cycle(*from)
		*from++
	}
}

// establish sets up a circuit src->dst on switch sw and registers the cache
// entry the way the protocol layer does.
func establish(t *testing.T, f *testFabric, now *int64, src, dst topology.Node, sw int) *circuit.Entry {
	t.Helper()
	entry := &circuit.Entry{Dest: dst, Switch: sw, InitialSwitch: sw, State: circuit.Setting}
	if err := f.Cache(src).Insert(entry); err != nil {
		t.Fatal(err)
	}
	res := f.probe(now, src, dst, sw, false)
	if res == nil || !res.OK {
		t.Fatalf("setup failed: %+v", res)
	}
	entry.ID = res.Circuit
	entry.Channel = res.First.Link
	entry.Switch = res.First.Switch
	entry.State = circuit.Established
	return entry
}

// TestWaveClockMultMustBeFinite: NaN compares false with everything, so a
// plain "<= 0" test let it through; NaN and both infinities are refused and
// the error names the field.
func TestWaveClockMultMustBeFinite(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	for _, m := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		p := DefaultParams()
		p.WaveClockMult = m
		_, err := New(topo, p, Hooks{})
		if err == nil || !strings.Contains(err.Error(), "WaveClockMult") {
			t.Errorf("WaveClockMult %g: err = %v, want a WaveClockMult error", m, err)
		}
	}
	p := DefaultParams()
	p.WaveClockMult = 0.5
	if _, err := New(topo, p, Hooks{}); err != nil {
		t.Errorf("WaveClockMult 0.5 refused: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	p := DefaultParams()
	p.WaveClockMult = 0
	if _, err := New(topo, p, Hooks{}); err == nil {
		t.Fatal("zero clock mult accepted")
	}
	p = DefaultParams()
	p.CacheCapacity = 0
	if _, err := New(topo, p, Hooks{}); err == nil {
		t.Fatal("zero cache capacity accepted")
	}
	p = DefaultParams()
	p.Routing = "bogus"
	if _, err := New(topo, p, Hooks{}); err == nil {
		t.Fatal("bogus routing accepted")
	}
	p = DefaultParams()
	p.ReplacePolicy = "bogus"
	if _, err := New(topo, p, Hooks{}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestCircuitRate(t *testing.T) {
	p := DefaultParams() // mult 4, k 2
	if got := p.CircuitRate(); got != 2 {
		t.Fatalf("rate = %g, want 2", got)
	}
}

// TestFig2RouterStructure is the structural reproduction of Figure 2: the
// fabric exposes switch S0 (wormhole engine), k wave switches with the PCS
// control unit, and a Circuit Cache at every node's network interface.
func TestFig2RouterStructure(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	prm := DefaultParams()
	f := newFabric(t, topo, prm, Hooks{})
	if f.WH == nil {
		t.Fatal("no wormhole switch S0")
	}
	if f.PCS == nil {
		t.Fatal("no PCS routing control unit")
	}
	// k wave switches: a channel exists for every (link, switch) pair.
	link, _ := topo.OutSlot(0, int(topology.Plus))
	for sw := 0; sw < prm.NumSwitches; sw++ {
		if f.PCS.ChannelStatus(pcs.Channel{Link: link, Switch: sw}) != pcs.Free {
			t.Fatalf("wave channel (link %d, S%d) not present/free", link, sw+1)
		}
	}
	for n := topology.Node(0); int(n) < topo.Nodes(); n++ {
		if f.Cache(n) == nil || f.Cache(n).Capacity() != prm.CacheCapacity {
			t.Fatalf("node %d missing circuit cache", n)
		}
	}
}

func TestWormholePathThroughFabric(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	var deliveredAt int64 = -1
	f := newFabric(t, topo, DefaultParams(), Hooks{
		DeliveredWormhole: func(m flit.Message, now int64) { deliveredAt = now },
	})
	f.InjectWormhole(flit.Message{ID: 1, Src: 0, Dst: 15, Len: 8, InjectTime: 0})
	now := int64(0)
	run(f, &now, 100)
	want := int64(topo.Distance(0, 15) + 8 - 1)
	if deliveredAt != want {
		t.Fatalf("wormhole delivery at %d, want %d", deliveredAt, want)
	}
}

func TestCircuitTransferTiming(t *testing.T) {
	// mult=4, k=2 => rate 2 flits/cycle; 6 hops, 128 flits:
	// transfer = ceil(6/4 + 128/2) = ceil(65.5) = 66 cycles; ack 6 more.
	topo := topology.MustCube([]int{4, 4}, false)
	var deliveredAt int64 = -1
	idleAt := int64(-1)
	var f *testFabric
	f = newFabric(t, topo, DefaultParams(), Hooks{
		DeliveredCircuit: func(m flit.Message, now int64) { deliveredAt = now },
		CircuitIdle:      func(src, dst topology.Node) { idleAt = f.Now() },
	})
	now := int64(0)
	entry := establish(t, f, &now, 0, 15, 0)

	start := f.Now() // SendOnCircuit timestamps from the last executed cycle
	f.SendOnCircuit(entry, flit.Message{ID: 2, Src: 0, Dst: 15, Len: 128, InjectTime: start})
	if !entry.InUse {
		t.Fatal("In-use bit not set during transfer")
	}
	run(f, &now, 200)
	if got, want := deliveredAt-start, int64(66); got != want {
		t.Fatalf("transfer latency = %d, want %d", got, want)
	}
	if got, want := idleAt-start, int64(66+6); got != want {
		t.Fatalf("in-use clear = %d, want %d (transfer + ack)", got, want)
	}
	if entry.InUse {
		t.Fatal("In-use bit stuck")
	}
	if f.CircuitMsgsDelivered != 1 || f.CircuitFlitsDelivered != 128 {
		t.Fatalf("counters: %d msgs %d flits", f.CircuitMsgsDelivered, f.CircuitFlitsDelivered)
	}
}

// TestCycleReportsProgress pins Fabric.Cycle's result, the watchdog's
// progress signal, across a circuit transfer: the engines are idle while
// the message streams, so only the cycles that fire the delivery and the
// window acknowledgment report that work moved.
func TestCycleReportsProgress(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	var events []int64
	var f *testFabric
	f = newFabric(t, topo, DefaultParams(), Hooks{
		DeliveredCircuit: func(_ flit.Message, now int64) { events = append(events, now) },
		CircuitIdle:      func(_, _ topology.Node) { events = append(events, f.Now()) },
	})
	now := int64(0)
	entry := establish(t, f, &now, 0, 15, 0)
	run(f, &now, 20) // let the setup's last control flits settle
	f.SendOnCircuit(entry, flit.Message{ID: 2, Src: 0, Dst: 15, Len: 128, InjectTime: now})
	var moving []int64
	for end := now + 200; now < end; now++ {
		if f.Cycle(now) {
			moving = append(moving, now)
		}
	}
	if len(events) != 2 || !slices.Equal(moving, events) {
		t.Fatalf("cycles reporting progress %v, want the delivery and ack cycles %v", moving, events)
	}
}

func TestWindowThrottlesTransfer(t *testing.T) {
	// mult=4, k=2 => rate 2; 6 hops => fill 1.5, ack 6, rtt 7.5 cycles.
	// Window 5 flits: effective rate 5/7.5 = 0.667 < 2, so a 120-flit
	// message takes ceil(1.5 + 120/0.667) = 182 cycles instead of
	// ceil(1.5 + 60) = 62.
	topo := topology.MustCube([]int{4, 4}, false)
	prm := DefaultParams()
	prm.WindowFlits = 5
	var deliveredAt int64 = -1
	f := newFabric(t, topo, prm, Hooks{
		DeliveredCircuit: func(m flit.Message, now int64) { deliveredAt = now },
	})
	now := int64(0)
	entry := establish(t, f, &now, 0, 15, 0)
	start := f.Now()
	f.SendOnCircuit(entry, flit.Message{ID: 2, Src: 0, Dst: 15, Len: 120, InjectTime: start})
	run(f, &now, 400)
	if got, want := deliveredAt-start, int64(182); got != want {
		t.Fatalf("windowed transfer = %d cycles, want %d", got, want)
	}
}

func TestWindowLargerThanBDPIsFree(t *testing.T) {
	// A window above the bandwidth-delay product must not change timing.
	topo := topology.MustCube([]int{4, 4}, false)
	run1 := func(window int) int64 {
		prm := DefaultParams()
		prm.WindowFlits = window
		var deliveredAt int64 = -1
		f := newFabric(t, topo, prm, Hooks{
			DeliveredCircuit: func(m flit.Message, now int64) { deliveredAt = now },
		})
		now := int64(0)
		entry := establish(t, f, &now, 0, 15, 0)
		start := f.Now()
		f.SendOnCircuit(entry, flit.Message{ID: 2, Src: 0, Dst: 15, Len: 64, InjectTime: start})
		run(f, &now, 300)
		return deliveredAt - start
	}
	if a, b := run1(0), run1(1000); a != b {
		t.Fatalf("huge window changed timing: %d vs %d", a, b)
	}
}

func TestWaveLinkFlitsAccounting(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	f := newFabric(t, topo, DefaultParams(), Hooks{})
	now := int64(0)
	entry := establish(t, f, &now, 0, 15, 0)
	c, _ := f.PCS.CircuitByID(entry.ID)
	f.SendOnCircuit(entry, flit.Message{ID: 1, Src: 0, Dst: 15, Len: 50, InjectTime: now})
	run(f, &now, 300)
	for _, ch := range c.Path {
		if f.WaveLinkFlits[ch.Link] != 50 {
			t.Fatalf("link %d carried %d wave flits, want 50", ch.Link, f.WaveLinkFlits[ch.Link])
		}
	}
}

func TestCircuitBeatsWormholeForLongMessages(t *testing.T) {
	// The headline claim (E1): for >= 128-flit messages, circuit transfer
	// (even including setup) is several times faster than wormhole. The
	// full-width configuration is k=1 ("the simplest version of wave router")
	// where the whole 4x-clocked channel belongs to one circuit.
	topo := topology.MustCube([]int{8, 8}, true)
	prm := DefaultParams()
	prm.NumSwitches = 1
	var whAt, wcAt int64 = -1, -1
	f := newFabric(t, topo, prm, Hooks{
		DeliveredWormhole: func(m flit.Message, now int64) { whAt = now },
		DeliveredCircuit:  func(m flit.Message, now int64) { wcAt = now },
	})
	src, dst := topology.Node(0), topology.Node(36) // (4,4): distance 8
	const L = 256

	now := int64(0)
	f.InjectWormhole(flit.Message{ID: 1, Src: int(src), Dst: int(dst), Len: L, InjectTime: now})
	run(f, &now, 500)
	whLatency := whAt

	setupStart := now
	entry := establish(t, f, &now, src, dst, 0)
	f.SendOnCircuit(entry, flit.Message{ID: 2, Src: int(src), Dst: int(dst), Len: L, InjectTime: setupStart})
	run(f, &now, 500)
	circuitLatency := wcAt - setupStart // includes the whole setup round trip

	if circuitLatency*3 >= whLatency {
		t.Fatalf("circuit (incl. setup) %d cycles vs wormhole %d: expected at least 3x gain", circuitLatency, whLatency)
	}
}

func TestSendOnCircuitGuards(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	f := newFabric(t, topo, DefaultParams(), Hooks{})
	now := int64(0)
	entry := establish(t, f, &now, 0, 15, 0)
	f.SendOnCircuit(entry, flit.Message{ID: 1, Src: 0, Dst: 15, Len: 4, InjectTime: now})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SendOnCircuit while in use did not panic")
			}
		}()
		f.SendOnCircuit(entry, flit.Message{ID: 2, Src: 0, Dst: 15, Len: 4, InjectTime: now})
	}()
	run(f, &now, 200)
	entry.State = circuit.Setting
	defer func() {
		if recover() == nil {
			t.Fatal("SendOnCircuit on non-established did not panic")
		}
	}()
	f.SendOnCircuit(entry, flit.Message{ID: 3, Src: 0, Dst: 15, Len: 4, InjectTime: now})
}

func TestRequestTeardownIdleCircuit(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	freed := 0
	var freedDst topology.Node
	f := newFabric(t, topo, DefaultParams(), Hooks{
		CircuitFreed: func(src, dst topology.Node, id circuit.ID) {
			freed++
			freedDst = dst
			if src != 0 {
				t.Fatalf("freed at wrong source %d", src)
			}
		},
	})
	now := int64(0)
	entry := establish(t, f, &now, 0, 15, 0)
	f.RequestTeardown(0, entry)
	if entry.State != circuit.Releasing {
		t.Fatalf("state = %v, want releasing", entry.State)
	}
	run(f, &now, 50)
	if freed != 1 || freedDst != 15 {
		t.Fatalf("CircuitFreed: %d times, dst %d", freed, freedDst)
	}
	if _, ok := f.Cache(0).Peek(15); ok {
		t.Fatal("cache entry survived teardown")
	}
	if f.PCS.NumCircuits() != 0 {
		t.Fatal("PCS registry not empty")
	}
}

func TestRequestTeardownDefersWhileInUse(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	freed := 0
	var f *testFabric
	var entry *circuit.Entry
	f = newFabric(t, topo, DefaultParams(), Hooks{
		CircuitFreed: func(src, dst topology.Node, id circuit.ID) { freed++ },
		// NI idle handler: honour any deferred release.
		CircuitIdle: func(src, dst topology.Node) { f.MaybeHonourRelease(0, entry) },
	})
	now := int64(0)
	entry = establish(t, f, &now, 0, 15, 0)
	f.SendOnCircuit(entry, flit.Message{ID: 1, Src: 0, Dst: 15, Len: 64, InjectTime: now})
	f.RequestTeardown(0, entry) // must defer: message in transit
	if entry.State != circuit.Established {
		t.Fatal("teardown did not defer while in use")
	}
	run(f, &now, 10)
	if freed != 0 {
		t.Fatal("circuit freed while message in transit")
	}
	run(f, &now, 300)
	if freed != 1 {
		t.Fatalf("deferred teardown never completed: freed=%d", freed)
	}
}

func TestRemoteReleaseViaForceProbe(t *testing.T) {
	// End-to-end Force flow through the fabric host: a circuit from node 1
	// blocks the only minimal channels; a Force probe from node 0 triggers a
	// release flit, the fabric receives RequestRemoteRelease, tears down the
	// victim, and the probe completes.
	topo := topology.MustCube([]int{4, 2}, false)
	prm := DefaultParams()
	prm.NumSwitches = 1
	prm.MaxMisroutes = 0
	prm.Routing = "dor"
	freed := 0
	f := newFabric(t, topo, prm, Hooks{
		CircuitFreed: func(src, dst topology.Node, id circuit.ID) { freed++ },
	})
	now := int64(0)
	establish(t, f, &now, 1, 3, 0)

	res := f.probe(&now, 0, 3, 0, true)
	if res == nil || !res.OK {
		t.Fatalf("force probe did not succeed: %+v", res)
	}
	if freed != 1 {
		t.Fatalf("victim circuit not freed: %d", freed)
	}
}

func TestLocalReleaseViaForceProbe(t *testing.T) {
	// The Force probe blocked at its own source picks a victim from the
	// local circuit cache (replacement), not via a release flit.
	topo := topology.MustCube([]int{4, 2}, false)
	prm := DefaultParams()
	prm.NumSwitches = 1
	prm.MaxMisroutes = 0
	prm.Routing = "dor"
	f := newFabric(t, topo, prm, Hooks{})
	now := int64(0)
	// Node 0's own circuit to node 3 occupies the dim-0 channel; its circuit
	// to node 4 (coord (0,1)) occupies the dim-1 channel. Both outputs of
	// node 0 are now busy.
	e3 := establish(t, f, &now, 0, 3, 0)
	e4 := establish(t, f, &now, 0, topo.NodeAt([]int{0, 1}), 0)
	_ = e4

	res := f.probe(&now, 0, 2, 0, true)
	if res == nil || !res.OK {
		t.Fatalf("force probe failed: %+v", res)
	}
	if e3.State != circuit.Releasing {
		// The probe to node 2 requested the dim-0 channel, held by e3.
		t.Fatalf("local victim not released: %v", e3.State)
	}
	if f.PCS.Ctr.ReleasesSent != 0 {
		t.Fatal("release flit sent for a local victim")
	}
}

func TestDeterministicFabric(t *testing.T) {
	runOnce := func() (int64, int64) {
		topo := topology.MustCube([]int{4, 4}, true)
		var whSum, wcSum int64
		f := newFabric(t, topo, DefaultParams(), Hooks{
			DeliveredWormhole: func(m flit.Message, now int64) { whSum += now },
			DeliveredCircuit:  func(m flit.Message, now int64) { wcSum += now },
		})
		now := int64(0)
		for i := 0; i < 20; i++ {
			f.InjectWormhole(flit.Message{ID: flit.MsgID(i), Src: i % 16, Dst: (i * 7) % 16, Len: 4 + i%9, InjectTime: 0})
		}
		e := establish(t, f, &now, 0, 15, 1)
		f.SendOnCircuit(e, flit.Message{ID: 1000, Src: 0, Dst: 15, Len: 100, InjectTime: now})
		run(f, &now, 2000)
		return whSum, wcSum
	}
	a1, a2 := runOnce()
	b1, b2 := runOnce()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("fabric not deterministic: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}
