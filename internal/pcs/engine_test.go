package pcs

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/topology"
)

// fakeHost is a scriptable Host for engine-level tests.
type fakeHost struct {
	local  func(n topology.Node, wanted func(Channel) bool) (Channel, bool)
	remote func(id circuit.ID)
}

func (h *fakeHost) RequestLocalRelease(n topology.Node, wanted func(Channel) bool) (Channel, bool) {
	if h.local == nil {
		return Channel{}, false
	}
	return h.local(n, wanted)
}

func (h *fakeHost) RequestRemoteRelease(id circuit.ID) {
	if h.remote != nil {
		h.remote(id)
	}
}

func newEngine(t *testing.T, topo topology.Topology, prm Params, host Host) *Engine {
	t.Helper()
	e, err := New(topo, prm, host)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// probeResults holds every probe outcome an engine reported, keyed by
// SetupResult.Probe.
type probeResults map[flit.ProbeID]*SetupResult

// watchProbes registers e's SetProbeDone handler and returns the results it
// fills.
func watchProbes(e *Engine) probeResults {
	res := probeResults{}
	e.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, _ int64, r SetupResult) { res[r.Probe] = &r })
	return res
}

// setup launches a probe and cycles e until it resolves, within maxCycles.
func (res probeResults) setup(t *testing.T, e *Engine, src, dst topology.Node, sw int, force bool, maxCycles int) *SetupResult {
	t.Helper()
	id := e.LaunchProbeTagged(src, dst, sw, force, 0)
	runUntil(t, e, maxCycles, func() bool { return res[id] != nil })
	return res[id]
}

// runUntil cycles the engine until pred is true or maxCycles pass.
func runUntil(t *testing.T, e *Engine, maxCycles int, pred func() bool) int {
	t.Helper()
	for cyc := 0; cyc < maxCycles; cyc++ {
		if pred() {
			return cyc
		}
		e.Cycle(int64(cyc))
	}
	if !pred() {
		t.Fatalf("condition not reached within %d cycles", maxCycles)
	}
	return maxCycles
}

func TestNewValidation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	if _, err := New(topo, Params{NumSwitches: 0, MaxMisroutes: 1}, &fakeHost{}); err == nil {
		t.Fatal("0 switches accepted")
	}
	if _, err := New(topo, Params{NumSwitches: 1, MaxMisroutes: -1}, &fakeHost{}); err == nil {
		t.Fatal("negative misroutes accepted")
	}
	if _, err := New(topo, Params{NumSwitches: 1, MaxMisroutes: 99}, &fakeHost{}); err == nil {
		t.Fatal("misroute budget beyond probe field width accepted")
	}
	if _, err := New(topo, DefaultParams(), nil); err == nil {
		t.Fatal("nil host accepted")
	}
}

func TestProbeEstablishesMinimalCircuit(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	src, dst := topology.Node(0), topology.Node(15)
	res := watchProbes(e).setup(t, e, src, dst, 0, false, 100)
	if !res.OK {
		t.Fatal("setup failed on an empty network")
	}
	want := topo.Distance(src, dst)
	if res.PathLen != want {
		t.Fatalf("path length %d, want minimal %d", res.PathLen, want)
	}
	// Round trip: D hops out + D hops of ack.
	if res.Cycles < int64(2*want) || res.Cycles > int64(2*want+2) {
		t.Fatalf("setup cycles = %d, want about %d", res.Cycles, 2*want)
	}
	if e.Ctr.Misroutes != 0 || e.Ctr.Backtracks != 0 {
		t.Fatalf("unexpected misroutes/backtracks: %+v", e.Ctr)
	}
	c, ok := e.CircuitByID(res.Circuit)
	if !ok {
		t.Fatal("circuit not registered")
	}
	if c.Src != src || c.Dst != dst || len(c.Path) != want {
		t.Fatalf("circuit registry wrong: %+v", c)
	}
}

// TestCycleReportsMovement pins Cycle's result, the watchdog's progress
// signal: on an empty network every cycle of a setup (probe hops, the
// registration at the destination, ack hops) and of a teardown moves
// something, and an idle cycle moves nothing.
func TestCycleReportsMovement(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	res := watchProbes(e)
	now := int64(0)
	step := func(want bool) {
		t.Helper()
		if got := e.Cycle(now); got != want {
			t.Fatalf("cycle %d: Cycle reported %v, want %v", now, got, want)
		}
		now++
	}
	step(false)
	id := e.LaunchProbeTagged(0, 15, 0, false, 0)
	for res[id] == nil {
		step(true)
	}
	step(false)
	freed := false
	e.SetCircuitFreed(func(_, _ topology.Node, _ circuit.ID) { freed = true })
	e.TeardownNotify(res[id].Circuit)
	for !freed {
		step(true)
	}
	step(false)
}

// TestFig3StatusRegisters is the structural reproduction of Figure 3: after
// establishing a circuit, every register holds exactly what the paper says.
func TestFig3StatusRegisters(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	src, dst := topology.Node(0), topology.Node(3) // straight line in dim 0
	res := watchProbes(e).setup(t, e, src, dst, 0, false, 100)
	if !res.OK {
		t.Fatal("setup failed")
	}
	c, _ := e.CircuitByID(res.Circuit)

	// Channel Status + Ack Returned for every hop.
	for _, ch := range c.Path {
		if e.ChannelStatus(ch) != Established {
			t.Fatalf("channel %+v status %v, want established", ch, e.ChannelStatus(ch))
		}
		if !e.AckReturned(ch) {
			t.Fatalf("channel %+v missing Ack Returned bit", ch)
		}
	}
	// Direct and Reverse Channel Mappings chain the path together.
	for i := 0; i+1 < len(c.Path); i++ {
		next, ok := e.DirectMapping(c.Path[i])
		if !ok || next != c.Path[i+1] {
			t.Fatalf("direct mapping at hop %d: %+v ok=%v", i, next, ok)
		}
		prev, ok := e.ReverseMapping(c.Path[i+1])
		if !ok || prev != c.Path[i] {
			t.Fatalf("reverse mapping at hop %d: %+v ok=%v", i, prev, ok)
		}
	}
	// Source and destination hops have no mappings (the circuit ends there).
	if _, ok := e.ReverseMapping(c.Path[0]); ok {
		t.Fatal("first channel has a reverse mapping")
	}
	if _, ok := e.DirectMapping(c.Path[len(c.Path)-1]); ok {
		t.Fatal("last channel has a direct mapping")
	}
	// An untouched channel is Free with no ack.
	other := Channel{Link: mustLink(t, topo, 5, 1, topology.Plus), Switch: 0}
	if e.ChannelStatus(other) != Free || e.AckReturned(other) {
		t.Fatal("untouched channel not free")
	}
}

func mustLink(t *testing.T, topo topology.Geometry, n topology.Node, dim int, dir topology.Dir) topology.LinkID {
	t.Helper()
	l, ok := topo.OutSlot(n, 2*dim+int(dir))
	if !ok {
		t.Fatalf("no link at node %d dim %d", n, dim)
	}
	return l
}

func TestHistoryStoreCleanedUp(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 2}, &fakeHost{})
	res := watchProbes(e)
	id := e.LaunchProbeTagged(0, 15, 0, false, 0)
	// Mid-flight the history store must record searched outputs at the source.
	e.Cycle(0)
	if e.History(0, id) == 0 {
		t.Fatal("history store empty after first hop")
	}
	runUntil(t, e, 100, func() bool { return res[id] != nil })
	if e.History(0, id) != 0 {
		t.Fatal("history store leaked entries after the probe finished")
	}
}

func TestSecondProbeMisroutesAroundReservation(t *testing.T) {
	// Probe A reserves the dim-0 channel out of node 0; probe B to the same
	// destination must misroute via dim 1 (with budget) or fail (without).
	topo := topology.MustCube([]int{4, 2}, false)
	src, dst := topology.Node(0), topology.Node(3)

	run := func(m int) (ok bool, ctr Counters) {
		e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: m}, &fakeHost{})
		res := watchProbes(e)
		if !res.setup(t, e, src, dst, 0, false, 100).OK {
			t.Fatal("probe A failed on empty network")
		}
		return res.setup(t, e, src, dst, 0, false, 200).OK, e.Ctr
	}

	if ok, ctr := run(2); !ok {
		t.Fatalf("MB-2 probe failed to route around the reservation: %+v", ctr)
	} else if ctr.Misroutes == 0 {
		t.Fatal("expected at least one misroute")
	}
	if ok, _ := run(0); ok {
		t.Fatal("MB-0 probe should fail: the only minimal first hop is reserved and misrouting is forbidden")
	}
}

func TestBacktrackRestoresChannels(t *testing.T) {
	// Fault every channel into the destination: the probe must exhaust the
	// search, backtrack fully, fail, and leave every channel Free again.
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 1}, &fakeHost{})
	dst := topology.Node(15)
	for dim := 0; dim < topo.Dims(); dim++ {
		for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
			nb, ok := topo.Neighbor(dst, dim, dir)
			if !ok {
				continue
			}
			l, _ := topo.OutSlot(nb, 2*dim+int(dir.Opposite()))
			e.InjectFault(Channel{Link: l, Switch: 0})
		}
	}
	res := watchProbes(e).setup(t, e, 0, dst, 0, false, 5000)
	if res.OK {
		t.Fatal("probe succeeded through faulted channels")
	}
	if e.Ctr.Backtracks == 0 {
		t.Fatal("no backtracks recorded")
	}
	// Every non-faulty channel is Free; no reservations leak.
	for id := 0; id < topo.NumLinkSlots(); id++ {
		if _, ok := topo.LinkByID(topology.LinkID(id)); !ok {
			continue
		}
		ch := Channel{Link: topology.LinkID(id), Switch: 0}
		if s := e.ChannelStatus(ch); s == Reserved || s == Established {
			t.Fatalf("leaked reservation on %+v: %v", ch, s)
		}
	}
	for k := range e.directMap {
		if e.directMap[k] >= 0 || e.reverseMap[k] >= 0 {
			t.Fatal("mapping registers leaked")
		}
	}
	for _, p := range e.probes {
		if len(p.histNodes) != 0 {
			t.Fatal("history leaked")
		}
	}
}

func TestTeardownFreesEverything(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	res := watchProbes(e).setup(t, e, 0, 15, 1, false, 100)
	c, _ := e.CircuitByID(res.Circuit)
	path := append([]Channel(nil), c.Path...)

	done := false
	e.SetCircuitFreed(func(_, _ topology.Node, id circuit.ID) { done = id == res.Circuit })
	e.TeardownNotify(res.Circuit)
	// Teardown takes one cycle per hop.
	cycles := 0
	for !done {
		e.Cycle(int64(cycles))
		cycles++
		if cycles > len(path)+2 {
			t.Fatal("teardown too slow")
		}
	}
	for _, ch := range path {
		if e.ChannelStatus(ch) != Free || e.AckReturned(ch) {
			t.Fatalf("channel %+v not fully freed", ch)
		}
	}
	if _, ok := e.CircuitByID(res.Circuit); ok {
		t.Fatal("circuit survived teardown")
	}
	for k := range e.directMap {
		if e.directMap[k] >= 0 || e.reverseMap[k] >= 0 {
			t.Fatal("mappings survived teardown")
		}
	}
}

func TestTeardownUnknownCircuitPanics(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, DefaultParams(), &fakeHost{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown circuit")
		}
	}()
	e.TeardownNotify(42)
}

// TestDeprecatedTeardown: the former Teardown name refuses a completion
// closure and, given nil, tears the circuit down as TeardownNotify does.
func TestDeprecatedTeardown(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, DefaultParams(), &fakeHost{})
	res := watchProbes(e).setup(t, e, 0, 15, 0, false, 100)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Teardown accepted a completion closure")
			}
		}()
		e.Teardown(res.Circuit, func() {})
	}()
	if c, ok := e.CircuitByID(res.Circuit); !ok || c.tearingDown {
		t.Fatal("refused Teardown started the teardown")
	}
	var freed []circuit.ID
	e.SetCircuitFreed(func(_, _ topology.Node, id circuit.ID) { freed = append(freed, id) })
	e.Teardown(res.Circuit, nil)
	runUntil(t, e, 100, func() bool { return e.NumCircuits() == 0 })
	if len(freed) != 1 || freed[0] != res.Circuit {
		t.Fatalf("CircuitFreed calls %v, want [%d]", freed, res.Circuit)
	}
}

func TestSwitchesAreIndependentResources(t *testing.T) {
	// Circuits on different wave switches can share the same physical links.
	topo := topology.MustCube([]int{4, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 0}, &fakeHost{})
	res := watchProbes(e)
	r0 := res.setup(t, e, 0, 3, 0, false, 100)
	r1 := res.setup(t, e, 0, 3, 1, false, 100)
	if !r0.OK || !r1.OK {
		t.Fatalf("switch independence violated: %v %v", r0.OK, r1.OK)
	}
	if r0.PathLen != 3 || r1.PathLen != 3 {
		t.Fatalf("expected both circuits minimal: %d %d", r0.PathLen, r1.PathLen)
	}
}

func TestForceProbeReleasesRemoteCircuit(t *testing.T) {
	// A circuit from node 1 to node 3 blocks the line; a Force probe from
	// node 0 to node 3 needs those channels. The probe must send a release
	// flit to node 1's NI (remote release), which tears the circuit down; the
	// probe then completes.
	topo := topology.MustCube([]int{4, 2}, false)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)

	res := watchProbes(e)
	rBlock := res.setup(t, e, 1, 3, 0, false, 100)
	if !rBlock.OK {
		t.Fatal("blocking circuit failed")
	}

	// The fake "NI at node 1" tears the circuit down when asked.
	released := 0
	host.remote = func(id circuit.ID) {
		released++
		if id != rBlock.Circuit {
			t.Fatalf("release for wrong circuit %d", id)
		}
		e.TeardownNotify(id)
	}

	rForce := res.setup(t, e, 0, 3, 0, true, 500)
	if !rForce.OK {
		t.Fatal("force probe failed")
	}
	if released != 1 {
		t.Fatalf("remote releases = %d, want 1", released)
	}
	if e.Ctr.ForceWaits == 0 || e.Ctr.ReleasesSent != 1 {
		t.Fatalf("counters: %+v", e.Ctr)
	}
	if _, ok := e.CircuitByID(rBlock.Circuit); ok {
		t.Fatal("victim circuit still registered")
	}
}

func TestForceProbePrefersLocalCircuit(t *testing.T) {
	// When the node the probe is blocked at owns a qualifying circuit, the
	// local cache is consulted first and no release flit travels.
	topo := topology.MustCube([]int{4, 2}, false)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)

	res := watchProbes(e)
	rBlock := res.setup(t, e, 0, 3, 0, false, 100)

	localAsked := 0
	host.local = func(n topology.Node, wanted func(Channel) bool) (Channel, bool) {
		localAsked++
		if n != 0 {
			t.Fatalf("local release asked at node %d, want 0 (probe source)", n)
		}
		first := rBlock.First
		if !wanted(first) {
			t.Fatal("blocking circuit's first channel not wanted")
		}
		// Behave like the NI: tear it down (it is idle).
		e.TeardownNotify(rBlock.Circuit)
		return first, true
	}

	rForce := res.setup(t, e, 0, 3, 0, true, 500)
	if !rForce.OK {
		t.Fatal("force probe failed")
	}
	if localAsked == 0 {
		t.Fatal("local cache never consulted")
	}
	if e.Ctr.ReleasesSent != 0 {
		t.Fatalf("release flit sent despite local victim: %+v", e.Ctr)
	}
}

func TestForceBacktracksWhenAllChannelsInSetup(t *testing.T) {
	// Theorem 1's tricky case: every requested channel is Reserved (circuits
	// being established) -> the probe must backtrack even with Force set,
	// not wait (waiting would create cyclic dependencies between probes).
	topo := topology.MustCube([]int{4, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})

	// Reserve the channels as another probe would, through the status
	// setter, marking them Reserved (in setup); then launch the Force probe.
	for _, ch := range []Channel{
		{Link: mustLink(t, topo, 0, 0, topology.Plus), Switch: 0},
		{Link: mustLink(t, topo, 0, 1, topology.Plus), Switch: 0},
	} {
		e.setStatus(int32(ch.Link), ch.Switch, Reserved)
		e.owner[e.key(ch)] = 999 // some other probe
	}
	checkFree(t, e)
	res := watchProbes(e).setup(t, e, 0, 3, 0, true, 100)
	if res.OK {
		t.Fatal("force probe succeeded through reserved channels")
	}
	if e.Ctr.ForceWaits != 0 {
		t.Fatal("force probe waited on in-setup circuits (deadlock risk)")
	}
}

func TestReleaseDeduplication(t *testing.T) {
	// The second release request for the same circuit is discarded
	// (Theorem 1: "The second control flit will be discarded").
	topo := topology.MustCube([]int{4, 2}, false)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)
	res := watchProbes(e).setup(t, e, 0, 3, 0, false, 100)
	c, _ := e.CircuitByID(res.Circuit)

	remote := 0
	host.remote = func(circuit.ID) { remote++ }

	e.sendRelease(c.Path[2])
	e.sendRelease(c.Path[1]) // duplicate: same circuit
	if e.Ctr.ReleasesSent != 1 || e.Ctr.ReleasesDiscarded != 1 {
		t.Fatalf("dedup failed: %+v", e.Ctr)
	}
	runUntil(t, e, 20, func() bool { return remote > 0 })
	if remote != 1 {
		t.Fatalf("remote releases = %d", remote)
	}
}

func TestReleaseDiscardedWhenCircuitTornDown(t *testing.T) {
	// A release flit in flight when the circuit is torn down must be
	// discarded at an intermediate node, not crash or mis-fire.
	topo := topology.MustCube([]int{8, 2}, false)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)
	res := watchProbes(e).setup(t, e, 0, 7, 0, false, 100)
	c, _ := e.CircuitByID(res.Circuit)

	remote := 0
	host.remote = func(circuit.ID) { remote++ }

	// Launch a release from far down the path, then immediately tear down.
	e.sendRelease(c.Path[len(c.Path)-1])
	e.TeardownNotify(res.Circuit)
	for cyc := 0; cyc < 50; cyc++ {
		e.Cycle(int64(cyc))
	}
	if remote != 0 {
		t.Fatal("stale release flit reached the source")
	}
	if e.Ctr.ReleasesDiscarded == 0 {
		t.Fatal("stale release not counted as discarded")
	}
}

func TestSendReleaseOnFreeChannelDiscarded(t *testing.T) {
	topo := topology.MustCube([]int{4, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	e.sendRelease(Channel{Link: mustLink(t, topo, 0, 0, topology.Plus), Switch: 0})
	if e.Ctr.ReleasesSent != 0 || e.Ctr.ReleasesDiscarded != 1 {
		t.Fatalf("release on free channel not discarded: %+v", e.Ctr)
	}
}

func TestInjectFaultOnlyMarksFreeChannels(t *testing.T) {
	topo := topology.MustCube([]int{4, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	res := watchProbes(e).setup(t, e, 0, 3, 0, false, 100)
	c, _ := e.CircuitByID(res.Circuit)
	e.InjectFault(c.Path[0])
	if e.ChannelStatus(c.Path[0]) != Established {
		t.Fatal("fault injection clobbered an established circuit")
	}
}

func TestProbeToSelfPanics(t *testing.T) {
	topo := topology.MustCube([]int{4, 2}, false)
	e := newEngine(t, topo, DefaultParams(), &fakeHost{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.LaunchProbeTagged(3, 3, 0, false, 0)
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Free: "free", Reserved: "reserved", Established: "established", Faulty: "faulty"} {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
}

// TestTheoremProbeStorm floods the network with concurrent probes (half of
// them Force) plus a cooperating host, and checks the MB-m livelock-freedom
// claim: every probe terminates (success or failure), no channel is leaked,
// and the history store is empty afterwards.
func TestTheoremProbeStorm(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, host)
	host.remote = func(id circuit.ID) {
		if _, ok := e.CircuitByID(id); ok {
			e.TeardownNotify(id)
		}
	}
	res := watchProbes(e)
	launched := 0
	// Launch a dense wave of probes across many pairs, then let it drain.
	for n := 0; n < topo.Nodes(); n++ {
		for _, dd := range []int{1, 5, 7} {
			dst := (n + dd) % topo.Nodes()
			if dst == n {
				continue
			}
			e.LaunchProbeTagged(topology.Node(n), topology.Node(dst), n%2, n%3 == 0, 0)
			launched++
		}
	}
	for cyc := 0; len(res) < launched; cyc++ {
		e.Cycle(int64(cyc))
		if cyc > 200000 {
			t.Fatalf("probe storm did not terminate: %d probes alive, finished %d/%d",
				e.ActiveProbes(), len(res), launched)
		}
	}
	if len(res) != launched {
		t.Fatalf("finished %d of %d probes", len(res), launched)
	}
	for _, p := range e.probes {
		if len(p.histNodes) != 0 {
			t.Fatalf("history leaked %d entries for probe %d", len(p.histNodes), p.id)
		}
	}
	// Every Reserved channel must have been released (only Established for
	// surviving circuits and Free elsewhere).
	for k, s := range e.status {
		if s == Reserved {
			t.Fatalf("channel %d still reserved after storm", k)
		}
	}
	checkFree(t, e)
}
