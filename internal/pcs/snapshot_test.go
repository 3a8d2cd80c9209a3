package pcs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/flit"
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
// search frames from the chain of links and the visited bitset from the
// History Store's nodes. A link or node out of range, or a hop that does
// not leave the node the previous hop ends at, must be refused rather than
// rebuilt into a wrong search.
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

	t.Run("History Store node out of range", func(t *testing.T) {
		for _, node := range []topology.Node{64, -1} {
			e, p := searchingEngine(t)
			p.histNodes[0] = node
			_, err := decode(t, e, encode(t, e))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("History Store node %d out of range", node)) {
				t.Fatalf("node %d: err = %v, want a History Store node out of range", node, err)
			}
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

// searchRun is one engine of TestRestoreMidSearchMatches with the outcomes
// it reported, in report order.
type searchRun struct {
	e   *Engine
	res []SetupResult
}

// newSearchRun builds searchHarness's engine: a 4x4 torus, one wave switch,
// release requests answered by tearing the victim down.
func newSearchRun(t *testing.T) *searchRun {
	t.Helper()
	host := &fakeHost{}
	r := &searchRun{e: newEngine(t, topology.MustCube([]int{4, 4}, true), Params{NumSwitches: 1, MaxMisroutes: 2}, host)}
	host.remote = r.e.TeardownNotify
	r.e.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, _ int64, res SetupResult) { r.res = append(r.res, res) })
	return r
}

// TestRestoreMidSearchMatches snapshots a contended search once a probe has
// backtracked, restores it into a fresh engine and steps both to idle. The
// restored probes rebuild their frames and visited bitsets from the decoded
// paths and History Stores, so every outcome, counter and History Store
// mask must match the uninterrupted engine's, cycle by cycle. After the
// snapshot some probe must advance into a node it has already searched
// from: the frame push that finds the node's bit set.
func TestRestoreMidSearchMatches(t *testing.T) {
	orig := newSearchRun(t)
	for i := 0; i < 15; i++ {
		src := topology.Node(i)
		if src >= 10 {
			src++
		}
		orig.e.LaunchProbeTagged(src, 10, 0, i%2 == 1, 0)
	}
	backtracked := func() bool {
		for _, s := range orig.e.Searches(nil) {
			if s.Marked > s.Depth {
				return true
			}
		}
		return false
	}
	now := int64(0)
	for ; !backtracked(); now++ {
		if now > 1000 {
			t.Fatal("no probe backtracked")
		}
		orig.e.Cycle(now)
	}
	rest := newSearchRun(t)
	dec, err := snapshot.Open(encode(t, orig.e))
	if err != nil {
		t.Fatal(err)
	}
	if err := rest.e.State(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}

	before := len(orig.res) // outcomes reported before the snapshot
	depth := map[flit.ProbeID]int{}
	reentries := 0
	for ; !orig.e.Idle(); now++ {
		if now > 100000 {
			t.Fatal("search did not finish")
		}
		orig.e.Cycle(now)
		rest.e.Cycle(now)
		if !slices.Equal(orig.res[before:], rest.res) || orig.e.Ctr != rest.e.Ctr || orig.e.ActiveProbes() != rest.e.ActiveProbes() {
			t.Fatalf("cycle %d: restored engine diverged:\nresults %v\n   want %v\ncounters %+v\n    want %+v",
				now, rest.res, orig.res[before:], rest.e.Ctr, orig.e.Ctr)
		}
		for _, p := range orig.e.probes {
			for n := topology.Node(0); int(n) < orig.e.topo.Nodes(); n++ {
				if got, want := rest.e.History(n, p.id), orig.e.History(n, p.id); got != want {
					t.Fatalf("cycle %d: probe %d History at node %d is %#x, want %#x", now, p.id, n, got, want)
				}
			}
			if d := len(p.path); d > depth[p.id] && p.histAt(p.at) != 0 {
				reentries++
			}
			depth[p.id] = len(p.path)
		}
	}
	if !rest.e.Idle() {
		t.Fatal("restored engine is not idle with the original")
	}
	if reentries == 0 {
		t.Fatal("no probe re-entered a searched node after the snapshot")
	}
	t.Logf("%d probe results after the snapshot, %d re-entries of searched nodes, %d backtracks", len(rest.res), reentries, orig.e.Ctr.Backtracks)
}
