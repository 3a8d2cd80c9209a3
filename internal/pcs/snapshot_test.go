package pcs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// searchingEngine returns an engine on an 8x8 torus with one tagged probe
// two hops into its search on switch 1.
func searchingEngine(t *testing.T) (*Engine, *probe) {
	t.Helper()
	e := newEngine(t, topology.MustCube([]int{8, 8}, true), Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	e.LaunchProbeTagged(0, 27, 1, false, 0)
	e.Cycle(0)
	e.Cycle(1)
	p := e.probes[0]
	if len(p.path) != 2 {
		t.Fatalf("probe at depth %d, want 2", len(p.path))
	}
	return e, p
}

// encode returns src's state as a complete snapshot stream.
func encode(t *testing.T, src *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode restores b into a fresh engine of src's configuration and returns
// it with the decode error.
func decode(t *testing.T, src *Engine, b []byte) (*Engine, error) {
	t.Helper()
	dst := newEngine(t, src.topo, src.prm, &fakeHost{})
	dec, err := snapshot.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.State(dec); err != nil {
		return dst, err
	}
	if err := dec.Close(); err != nil {
		return dst, err
	}
	mustCheck(t, dst)
	return dst, nil
}

// TestRestoreRefusesInconsistentPath: a probe's path hops are written as
// their links (the switch is the probe's own), and the engine rebuilds the
// search frames from the chain of links. A link out of range, or a hop that
// does not leave the node the previous hop ends at, must be refused rather
// than rebuilt into a wrong search.
func TestRestoreRefusesInconsistentPath(t *testing.T) {
	e, _ := searchingEngine(t)
	if _, err := decode(t, e, encode(t, e)); err != nil {
		t.Fatalf("clean payload refused: %v", err)
	}

	t.Run("hop link out of range", func(t *testing.T) {
		for _, link := range []int32{int32(len(e.tab.To)), -1} {
			e, p := searchingEngine(t)
			p.path[1].link = link
			_, err := decode(t, e, encode(t, e))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("path link %d out of range", link)) {
				t.Fatalf("link %d: err = %v, want a path link out of range", link, err)
			}
		}
	})

	t.Run("hop not leaving the previous sink", func(t *testing.T) {
		e, p := searchingEngine(t)
		// Replace hop 1 with another output of the source node.
		first := p.path[0].link
		p.path[1].link = first ^ 1
		_, err := decode(t, e, encode(t, e))
		if err == nil || !strings.Contains(err.Error(), "path hop 1 leaves node 0") {
			t.Fatalf("err = %v, want a broken path chain", err)
		}
	})

	t.Run("probe off its path", func(t *testing.T) {
		e, p := searchingEngine(t)
		p.at = p.src
		_, err := decode(t, e, encode(t, e))
		if err == nil || !strings.Contains(err.Error(), "its path ends at") {
			t.Fatalf("err = %v, want a probe away from its path's end", err)
		}
	})
}

// TestRestoreRefusesTeardownOfUnknownCircuit: a teardown flit in flight is
// written as its circuit's ID and the hop it reaches next, and decoding
// re-links it to the circuit the registry decoded. A teardown whose ID names
// no registered circuit must be refused.
func TestRestoreRefusesTeardownOfUnknownCircuit(t *testing.T) {
	// A straight 7-hop circuit 0 -> 7 on one switch, torn down as soon as it
	// registers: the teardown waits behind the ack, then chases it.
	topo := topology.MustCube([]int{8, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	e.LaunchProbeTagged(0, 7, 0, false, 0)
	cyc := int64(0)
	for ; e.NumCircuits() == 0; cyc++ {
		e.Cycle(cyc)
	}
	e.TeardownNotify(e.circuits[1].ID)
	for ; len(e.teardowns) == 0; cyc++ {
		e.Cycle(cyc)
	}
	if _, err := decode(t, e, encode(t, e)); err != nil {
		t.Fatalf("clean payload refused: %v", err)
	}
	e.teardowns[0].circ = &Circuit{ID: 99}
	if _, err := decode(t, e, encode(t, e)); err == nil || !strings.Contains(err.Error(), "teardown refers to unknown circuit 99") {
		t.Fatalf("err = %v, want a teardown of an unknown circuit refused", err)
	}
}
