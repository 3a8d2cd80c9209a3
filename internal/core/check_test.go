package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// TestCheckFlitBalance runs wormhole and circuit traffic side by side and
// holds the flit balance after every cycle; a delivery counted twice, or
// one lost, breaks it by name.
func TestCheckFlitBalance(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	f := newFabric(t, topo, DefaultParams(), Hooks{})
	var now int64
	entry := establish(t, f, &now, 0, 5, 0)
	f.SendOnCircuit(entry, flit.Message{ID: 1, Src: 0, Dst: 5, Len: 64, InjectTime: now})
	for i := 0; i < 20; i++ {
		f.InjectWormhole(flit.Message{ID: flit.MsgID(i + 2), Src: i % 16, Dst: (i*5 + 3) % 16, Len: 1 + i%7, InjectTime: now})
	}
	for ; now < 40; now++ {
		f.Cycle(now)
		if err := f.Check(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	wh, circ := f.WH.FlitsDelivered, f.CircuitFlitsDelivered
	for _, corrupt := range []func(){
		func() { f.WH.FlitsDelivered++ },
		func() { f.CircuitFlitsDelivered-- },
	} {
		corrupt()
		if err := f.Check(); err == nil || !strings.Contains(err.Error(), "flit balance") {
			t.Fatalf("Check = %v, want the flit balance clause", err)
		}
		f.WH.FlitsDelivered, f.CircuitFlitsDelivered = wh, circ
	}
}

// cachedFabric is a live 4x4 fabric whose node 0 caches two established
// circuits, to nodes 5 and 10, with capacity 3.
func cachedFabric(t *testing.T) (*testFabric, []*circuit.Entry) {
	t.Helper()
	prm := DefaultParams()
	prm.CacheCapacity = 3
	f := newFabric(t, topology.MustCube([]int{4, 4}, true), prm, Hooks{})
	var now int64
	entries := []*circuit.Entry{establish(t, f, &now, 0, 5, 0), establish(t, f, &now, 0, 10, 1)}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	return f, entries
}

// cacheCorruptions are the states the caches and circuits clauses refuse,
// each made from cachedFabric's node 0 entries; msg is what both Check and
// decoding report.
var cacheCorruptions = []struct {
	name, clause, msg string
	corrupt           func(e []*circuit.Entry)
}{
	{"destinations out of order", "caches:", "caches destination 10 after 12", func(e []*circuit.Entry) { e[0].Dest = 12 }},
	{"destination out of range", "caches:", "caches destination 16 (hosts 0..15)", func(e []*circuit.Entry) { e[1].Dest = 16 }},
	{"destination is the node", "caches:", "caches destination 0, itself", func(e []*circuit.Entry) { e[0].Dest = 0 }},
	{"circuit the PCS does not hold", "circuits:", "the PCS does not hold", func(e []*circuit.Entry) { e[1].ID += 100 }},
	{"circuit on another switch", "circuits:", "the PCS does not hold", func(e []*circuit.Entry) { e[0].Switch = 1 }},
	{"circuit from another first hop", "circuits:", "the PCS does not hold", func(e []*circuit.Entry) { e[0].Channel ^= 1 }},
	{"circuit to another destination", "circuits:", "the PCS does not hold", func(e []*circuit.Entry) { e[0].Dest = 6 }},
	{"releasing circuit the PCS does not hold", "circuits:", "a releasing circuit", func(e []*circuit.Entry) {
		e[1].State = circuit.Releasing
		e[1].ID += 100
	}},
}

// TestCheckNamesEachClause corrupts one cached circuit of a live fabric per
// case and requires Check to name the broken clause; a Setting entry, which
// has no circuit yet, passes.
func TestCheckNamesEachClause(t *testing.T) {
	for _, c := range cacheCorruptions {
		t.Run(c.name, func(t *testing.T) {
			f, entries := cachedFabric(t)
			c.corrupt(entries)
			if err := f.Check(); err == nil || !strings.Contains(err.Error(), c.clause) || !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("Check = %v, want the %q clause: %q", err, c.clause, c.msg)
			}
		})
	}
	t.Run("setting entry", func(t *testing.T) {
		f, _ := cachedFabric(t)
		if err := f.Cache(0).Insert(&circuit.Entry{ID: 999, Dest: 15, State: circuit.Setting}); err != nil {
			t.Fatal(err)
		}
		if err := f.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// restoreFabric encodes src and decodes the bytes into a fresh fabric on
// the same topology built from prm.
func restoreFabric(t *testing.T, src *testFabric, prm Params) error {
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
	dec, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return newFabric(t, src.Topo, prm, Hooks{}).State(dec)
}

// TestRestoreRefusesInconsistentCache: decoding refuses every cache state
// Check refuses — more entries than the cache holds, destinations out of
// order or out of range, and established circuits the decoded PCS does not
// hold — where it used to decode any entries into any cache.
func TestRestoreRefusesInconsistentCache(t *testing.T) {
	f, _ := cachedFabric(t)
	if err := restoreFabric(t, f, f.Prm); err != nil {
		t.Fatalf("clean payload refused: %v", err)
	}
	for _, c := range cacheCorruptions {
		t.Run(c.name, func(t *testing.T) {
			f, entries := cachedFabric(t)
			c.corrupt(entries)
			if err := restoreFabric(t, f, f.Prm); err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("err = %v, want %q", err, c.msg)
			}
		})
	}
	t.Run("over capacity", func(t *testing.T) {
		f, _ := cachedFabric(t)
		prm := f.Prm
		prm.CacheCapacity = 1
		if err := restoreFabric(t, f, prm); err == nil || !strings.Contains(err.Error(), "capacity 1") {
			t.Fatalf("err = %v, want two entries refused by a 1-entry cache", err)
		}
	})
}

// TestCachesDerivedFromSplits: construction writes no cache. Node n's
// random-policy generator is the n-th split of the fabric RNG, and the
// fabric RNG stands where one split per node leaves it, so every stream is
// the one a fabric that split a generator off for each node at
// construction would draw.
func TestCachesDerivedFromSplits(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	prm := DefaultParams()
	prm.ReplacePolicy = "random"
	prm.Seed = 31
	f := newFabric(t, topo, prm, Hooks{})
	ref := sim.NewRNG(prm.Seed)
	want := make([]uint64, topo.Nodes())
	for n := range want {
		want[n] = ref.Split().State()
	}
	if f.rng.State() != ref.State() {
		t.Fatalf("fabric RNG at %#x, %d splits leave %#x", f.rng.State(), topo.Nodes(), ref.State())
	}
	for _, n := range []int{3, 0, 15, 7} {
		if c := &f.caches[n]; c.Capacity() != 0 {
			t.Fatalf("node %d cache configured before first use", n)
		}
		if got := f.Cache(topology.Node(n)).PolicyRNG().State(); got != want[n] {
			t.Fatalf("node %d RNG %#x, split %d gives %#x", n, got, n, want[n])
		}
		if c := f.Cache(topology.Node(n)); c.Capacity() != prm.CacheCapacity {
			t.Fatalf("node %d cache capacity %d", n, c.Capacity())
		}
	}
}
