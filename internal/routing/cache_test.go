package routing

import (
	"sync"
	"testing"

	"repro/internal/topology"
)

// TestBuildCDGCached checks the dependency-graph memoization added for the
// static prover: identical (topology shape, function, VCs) share one graph,
// any difference gets its own, and a cached graph is structurally identical
// to a fresh build.
func TestBuildCDGCached(t *testing.T) {
	cdgCacheMu.Lock()
	clear(cdgCache)
	cdgCacheMu.Unlock()

	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := BuildCDGCached(topo, fn)
	if b := BuildCDGCached(topology.MustCube([]int{4, 4}, true), fn); b != a {
		t.Error("identical shape did not share a graph")
	}
	if c := BuildCDGCached(topology.MustCube([]int{4, 4}, false), fn); c == a {
		t.Error("mesh and torus shared a graph")
	}
	duato, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c := BuildCDGCached(topo, duato); c == a {
		t.Error("different functions shared a graph")
	}

	// Structural equality with an uncached build.
	fresh := BuildCDG(topo, fn)
	if a.NumVertices() != fresh.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), fresh.NumVertices())
	}
	for v := 0; v < fresh.NumVertices(); v++ {
		ca, cf := a.Out(int32(v)), fresh.Out(int32(v))
		if len(ca) != len(cf) {
			t.Fatalf("vertex %d: out-degree %d vs %d", v, len(ca), len(cf))
		}
		for i := range ca {
			if ca[i] != cf[i] {
				t.Fatalf("vertex %d edge %d: %d vs %d", v, i, ca[i], cf[i])
			}
		}
	}
}

// TestBuildCDGCachedConcurrent proves the graph-cache locking under -race.
func TestBuildCDGCachedConcurrent(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if BuildCDGCached(topo, fn) == nil {
					t.Error("nil graph")
					return
				}
			}
		}()
	}
	wg.Wait()
}
