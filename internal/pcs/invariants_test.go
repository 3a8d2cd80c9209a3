package pcs

// Register-consistency invariants and additional race coverage for the PCS
// control unit. Engine.Check is the executable version of what Figure 3's
// registers must always satisfy: every held channel belongs to exactly one
// probe, acknowledgment or circuit path, the Direct/Reverse mappings chain
// each path, Ack Returned marks exactly the Established channels, and no
// channel outside some path is anything but Free or Faulty.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/topology"
)

// flitDecode aliases flit.Decode for readability in the wire tests.
func flitDecode(buf []byte, dims int) (flit.ProbeFields, error) { return flit.Decode(buf, dims) }

// mustCheck fails the test at the engine's first broken invariant.
func mustCheck(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Check(); err != nil {
		t.Fatalf("cycle %d: %v", e.now, err)
	}
}

// checkRoundTrip encodes e, decodes the bytes into a fresh engine and
// re-encodes that: every reachable state must survive the trip unchanged.
func checkRoundTrip(t *testing.T, e *Engine) {
	t.Helper()
	b := encode(t, e)
	r, err := decode(t, e, b)
	if err != nil {
		t.Fatalf("cycle %d: %v", e.now, err)
	}
	if !bytes.Equal(encode(t, r), b) {
		t.Fatalf("cycle %d: re-encoded snapshot differs", e.now)
	}
}

// TestRegisterConsistencyThroughChurn validates Figure 3 register invariants
// and the snapshot round trip at every 50th cycle of a probe/teardown churn
// workload.
func TestRegisterConsistencyThroughChurn(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	host := &fakeHost{}
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, host)
	host.remote = func(id circuit.ID) {
		if _, ok := e.CircuitByID(id); ok {
			e.TeardownNotify(id)
		}
	}
	rng := sim.NewRNG(31)
	live := map[circuit.ID]bool{}
	e.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, _ int64, r SetupResult) {
		if r.OK {
			live[r.Circuit] = true
		}
	})
	for cyc := int64(0); cyc < 4000; cyc++ {
		if cyc%7 == 0 {
			src := topology.Node(rng.Intn(16))
			dst := topology.Node(rng.Intn(16))
			if src != dst {
				e.LaunchProbeTagged(src, dst, rng.Intn(2), rng.Intn(2) == 0, 0)
			}
		}
		if cyc%13 == 0 {
			for id := range live {
				if c, ok := e.CircuitByID(id); ok && !c.tearingDown {
					e.TeardownNotify(id)
				}
				delete(live, id)
				break
			}
		}
		e.Cycle(cyc)
		if cyc%50 == 0 {
			mustCheck(t, e)
			checkRoundTrip(t, e)
		}
	}
}

// TestProbePathWithinMisrouteBudget: an established circuit's length never
// exceeds the minimal distance plus twice the misroute budget (each misroute
// adds one hop and one compensating hop).
func TestProbePathWithinMisrouteBudget(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	for _, m := range []int{0, 1, 2, 4} {
		e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: m}, &fakeHost{})
		res := watchProbes(e)
		rng := sim.NewRNG(uint64(m) + 7)
		type attempt struct {
			src, dst topology.Node
			id       flit.ProbeID
		}
		var atts []attempt
		for i := 0; i < 40; i++ {
			a := attempt{src: topology.Node(rng.Intn(16)), dst: topology.Node(rng.Intn(16))}
			if a.src == a.dst {
				continue
			}
			a.id = e.LaunchProbeTagged(a.src, a.dst, 0, false, 0)
			atts = append(atts, a)
		}
		for cyc := int64(0); cyc < 20_000; cyc++ {
			e.Cycle(cyc)
		}
		for _, a := range atts {
			r := res[a.id]
			if r == nil {
				t.Fatalf("m=%d: attempt %d->%d never finished", m, a.src, a.dst)
			}
			if !r.OK {
				continue
			}
			maxLen := topo.Distance(a.src, a.dst) + 2*m
			if r.PathLen > maxLen {
				t.Fatalf("m=%d: circuit %d->%d has %d hops > distance+2m = %d",
					m, a.src, a.dst, r.PathLen, maxLen)
			}
		}
	}
}

// TestTeardownDuringAck: tearing down immediately after the probe reaches the
// destination (while the ack is still travelling) must not corrupt state.
// TeardownNotify requires a registry entry, which exists as soon as the probe
// arrives; the teardown is deferred until the ack lands and then chases it.
// A snapshot taken while the teardown is deferred restores into an engine
// that steps to idle exactly as the original does.
func TestTeardownDuringAck(t *testing.T) {
	topo := topology.MustCube([]int{8, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	res := watchProbes(e)
	pid := e.LaunchProbeTagged(0, 7, 0, false, 0)
	// Step until the circuit registers (probe at destination), then tear
	// down while the ack is mid-flight.
	var id circuit.ID
	cyc := int64(0)
	for ; id == 0 && cyc < 100; cyc++ {
		e.Cycle(cyc)
		for cid := range e.circuits {
			id = cid
			e.TeardownNotify(id)
		}
	}
	if c, ok := e.CircuitByID(id); !ok || !c.ackPending || !c.teardownDeferred {
		t.Fatalf("circuit %d: teardown not deferred behind its ack", id)
	}

	r, err := decode(t, e, encode(t, e))
	if err != nil {
		t.Fatal(err)
	}
	rres := watchProbes(r)
	var freed, rfreed []circuit.ID
	e.SetCircuitFreed(func(_, _ topology.Node, id circuit.ID) { freed = append(freed, id) })
	r.SetCircuitFreed(func(_, _ topology.Node, id circuit.ID) { rfreed = append(rfreed, id) })
	for ; !e.Idle() && cyc < 200; cyc++ {
		e.Cycle(cyc)
		r.Cycle(cyc)
	}
	if !e.Idle() || !r.Idle() {
		t.Fatal("engines not idle after the deferred teardown")
	}
	if !bytes.Equal(encode(t, e), encode(t, r)) {
		t.Fatal("restored engine stepped to a different state")
	}
	if len(freed) != 1 || freed[0] != id || !slices.Equal(freed, rfreed) {
		t.Fatalf("CircuitFreed calls: original %v, restored %v, want [%d]", freed, rfreed, id)
	}
	if p := res[pid]; p == nil || !p.OK || rres[pid] == nil || *rres[pid] != *p {
		t.Fatalf("probe outcome: original %+v, restored %+v", p, rres[pid])
	}
	if e.NumCircuits() != 0 {
		t.Fatal("circuit survived teardown-during-ack")
	}
	for k, s := range e.status {
		if s != Free {
			t.Fatalf("channel %d stuck in %v", k, s)
		}
	}
	for k := range e.directMap1 {
		if e.direct(int32(k)) >= 0 || e.reverse(int32(k)) >= 0 {
			t.Fatal("mappings leaked")
		}
	}
}

// TestLaunchProbeInvalidSwitchPanics guards the API contract.
func TestLaunchProbeInvalidSwitchPanics(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 1}, &fakeHost{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range switch")
		}
	}()
	e.LaunchProbeTagged(0, 5, 2, false, 0)
}

// TestControlHopsAccounting: every control-flit movement is counted, so the
// counter grows monotonically and is nonzero after any activity.
func TestControlHopsAccounting(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 1}, &fakeHost{})
	watchProbes(e).setup(t, e, 0, 15, 0, false, 100)
	d := int64(topo.Distance(0, 15))
	// Probe out (d hops) + ack back (d hops) minimum.
	if e.Ctr.ControlHops < 2*d {
		t.Fatalf("control hops = %d, want >= %d", e.Ctr.ControlHops, 2*d)
	}
}

// TestWireFieldsRoundTrip links the engine's live probe state to the Figure 4
// wire format: at every step of a probe's journey, its fields encode into a
// control flit and decode back unchanged, and the offsets always reflect the
// remaining minimal path.
func TestWireFieldsRoundTrip(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 2}, &fakeHost{})
	res := watchProbes(e)
	id := e.LaunchProbeTagged(0, 10, 0, true, 0)
	buf := make([]byte, 16)
	steps := 0
	for cyc := int64(0); res[id] == nil && cyc < 200; cyc++ {
		if pf, ok := e.WireFields(id); ok {
			steps++
			if !pf.Header || !pf.Force {
				t.Fatalf("flag bits wrong: %+v", pf)
			}
			n, err := pf.Encode(buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := flitDecode(buf[:n], topo.Dims())
			if err != nil {
				t.Fatal(err)
			}
			for d := range pf.Offsets {
				if got.Offsets[d] != pf.Offsets[d] {
					t.Fatalf("offset %d round trip: %d vs %d", d, got.Offsets[d], pf.Offsets[d])
				}
			}
			if got.Misroute != pf.Misroute {
				t.Fatalf("misroute round trip: %d vs %d", got.Misroute, pf.Misroute)
			}
		}
		e.Cycle(cyc)
	}
	if r := res[id]; r == nil || !r.OK {
		t.Fatalf("probe did not finish: %+v", r)
	}
	if steps == 0 {
		t.Fatal("probe never observed in flight")
	}
	if _, ok := e.WireFields(id); ok {
		t.Fatal("finished probe still observable")
	}
}
