package pcs

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// outChannel is a test helper: node n's outgoing wave channel along (dim,
// dir) on switch sw.
func outChannel(t *testing.T, topo topology.Geometry, n topology.Node, dim int, dir topology.Dir, sw int) Channel {
	t.Helper()
	link, ok := topo.OutSlot(n, 2*dim+int(dir))
	if !ok {
		t.Fatalf("node %d has no out-link along dim %d dir %v", n, dim, dir)
	}
	return Channel{Link: link, Switch: sw}
}

func TestDynamicFaultOnFreeChannelAndRepair(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	ch := outChannel(t, topo, 0, 0, topology.Plus, 1)

	e.InjectDynamicFault(ch)
	checkFree(t, e)
	if got := e.ChannelStatus(ch); got != Faulty {
		t.Fatalf("status after fault = %v, want faulty", got)
	}
	e.InjectDynamicFault(ch) // double injection is a no-op
	checkFree(t, e)
	if e.Ctr.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", e.Ctr.FaultsInjected)
	}

	e.RepairFault(ch)
	checkFree(t, e)
	if got := e.ChannelStatus(ch); got != Free {
		t.Fatalf("status after repair = %v, want free", got)
	}
	if e.Ctr.FaultRepairs != 1 {
		t.Fatalf("FaultRepairs = %d, want 1", e.Ctr.FaultRepairs)
	}
	// Repairing a healthy channel changes nothing.
	e.RepairFault(ch)
	checkFree(t, e)
	if e.Ctr.FaultRepairs != 1 {
		t.Fatalf("repair of healthy channel counted: %d", e.Ctr.FaultRepairs)
	}
}

func TestDynamicFaultKillsSearchingProbe(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})

	res := watchProbes(e)
	id := e.LaunchProbeTagged(0, 3, 0, false, 0)
	e.Cycle(0)
	e.Cycle(1) // probe now holds 0->1 and 1->2
	first := outChannel(t, topo, 0, 0, topology.Plus, 0)
	second := outChannel(t, topo, 1, 0, topology.Plus, 0)
	if e.ChannelStatus(first) != Reserved || e.ChannelStatus(second) != Reserved {
		t.Fatalf("precondition: path not reserved (%v, %v)", e.ChannelStatus(first), e.ChannelStatus(second))
	}

	e.InjectDynamicFault(second)
	checkFree(t, e)
	if r := res[id]; r == nil || r.OK {
		t.Fatalf("killed probe did not fail back to its sender: %+v", r)
	}
	if e.ChannelStatus(second) != Faulty {
		t.Fatalf("faulted channel = %v, want faulty", e.ChannelStatus(second))
	}
	if e.ChannelStatus(first) != Free {
		t.Fatalf("released hop = %v, want free", e.ChannelStatus(first))
	}
	if e.ActiveProbes() != 0 || !e.Idle() {
		t.Fatalf("engine not idle after probe kill: %d probes", e.ActiveProbes())
	}
	if e.Ctr.FaultProbesKilled != 1 || e.Ctr.ProbesFailed != 1 {
		t.Fatalf("counters: %+v", e.Ctr)
	}
	// The History Store must be clean: a fresh probe can search node 1 again.
	if got := e.History(1, 1); got != 0 {
		t.Fatalf("history not cleaned: %#x", got)
	}
}

func TestDynamicFaultKillsAckInFlight(t *testing.T) {
	// Probe 0->3 on a straight line: 3 cycles of search, registration, then
	// 3 cycles of ack. Mid-ack the path is a mix of Established (tail) and
	// Reserved (head); a fault on either side must kill the whole setup.
	for _, hit := range []int{0, 2} {
		topo := topology.MustCube([]int{4, 4}, false)
		e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
		res := watchProbes(e)
		id := e.LaunchProbeTagged(0, 3, 0, false, 0)
		for c := int64(0); c <= 4; c++ {
			e.Cycle(c)
		}
		if res[id] != nil {
			t.Fatal("setup finished before the fault could hit the ack")
		}
		if e.NumCircuits() != 1 {
			t.Fatalf("circuit not registered yet: %d", e.NumCircuits())
		}
		path := []Channel{
			outChannel(t, topo, 0, 0, topology.Plus, 0),
			outChannel(t, topo, 1, 0, topology.Plus, 0),
			outChannel(t, topo, 2, 0, topology.Plus, 0),
		}
		e.InjectDynamicFault(path[hit])
		checkFree(t, e)
		if r := res[id]; r == nil || r.OK {
			t.Fatalf("hit=%d: killed setup did not fail back: %+v", hit, r)
		}
		if e.NumCircuits() != 0 {
			t.Fatalf("hit=%d: circuit survived the kill", hit)
		}
		if !e.Idle() {
			t.Fatalf("hit=%d: engine not idle after ack kill", hit)
		}
		for i, ch := range path {
			want := Free
			if i == hit {
				want = Faulty
			}
			if got := e.ChannelStatus(ch); got != want {
				t.Fatalf("hit=%d: path[%d] = %v, want %v", hit, i, got, want)
			}
		}
		if e.Ctr.FaultCircuitsTorn != 1 || e.Ctr.FaultProbesKilled != 1 {
			t.Fatalf("hit=%d: counters %+v", hit, e.Ctr)
		}
	}
}

func TestDynamicFaultTearsEstablishedCircuit(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)
	// The fabric's response to a remote release is a teardown; script it.
	torn := false
	host.remote = e.TeardownNotify
	e.SetCircuitFreed(func(topology.Node, topology.Node, circuit.ID) { torn = true })

	res := watchProbes(e)
	if !res.setup(t, e, 0, 3, 0, false, 100).OK {
		t.Fatal("setup failed on an empty network")
	}
	path := []Channel{
		outChannel(t, topo, 0, 0, topology.Plus, 0),
		outChannel(t, topo, 1, 0, topology.Plus, 0),
		outChannel(t, topo, 2, 0, topology.Plus, 0),
	}

	e.InjectDynamicFault(path[1])
	checkFree(t, e)
	if e.Ctr.FaultCircuitsTorn != 1 {
		t.Fatalf("FaultCircuitsTorn = %d, want 1", e.Ctr.FaultCircuitsTorn)
	}
	runUntil(t, e, 100, func() bool { return torn })
	// The teardown frees the healthy hops; the ownership guard leaves the
	// faulted hop exactly as the fault left it.
	for i, ch := range path {
		want := Free
		if i == 1 {
			want = Faulty
		}
		if got := e.ChannelStatus(ch); got != want {
			t.Fatalf("path[%d] = %v after teardown, want %v", i, got, want)
		}
	}
	if e.NumCircuits() != 0 {
		t.Fatalf("circuit registry not empty: %d", e.NumCircuits())
	}

	// Transient model: repair brings the channel back and a new setup over
	// the same line succeeds.
	e.RepairFault(path[1])
	checkFree(t, e)
	if !res.setup(t, e, 0, 3, 0, false, 100).OK {
		t.Fatal("setup after repair failed")
	}
}

func TestDynamicFaultOnStaticallyFaultedChannel(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	ch := outChannel(t, topo, 0, 0, topology.Plus, 0)
	e.InjectFault(ch)
	checkFree(t, e)
	e.InjectDynamicFault(ch)
	checkFree(t, e)
	if e.Ctr.FaultsInjected != 0 {
		t.Fatalf("dynamic fault on an already-faulty channel counted: %+v", e.Ctr)
	}
}
