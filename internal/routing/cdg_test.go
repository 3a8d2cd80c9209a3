package routing

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// referenceCDG is the map-based reachable-state walk BuildCDG replaced, kept
// as an oracle: the same seeding and stack order, with states and edges
// dedupped through hash maps.
func referenceCDG(topo topology.Topology, fn Func) [][]int32 {
	numVCs := fn.NumVCs()
	adj := make([][]int32, topo.NumLinkSlots()*numVCs)
	type state struct {
		v   int32
		dst topology.Node
	}
	seenEdge := make(map[[2]int32]bool)
	seenState := make(map[state]bool)
	var stack []state
	var cands []Candidate
	visit := func(s state) {
		if !seenState[s] {
			seenState[s] = true
			stack = append(stack, s)
		}
	}
	for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if src == dst {
				continue
			}
			for _, c := range fn.Candidates(src, dst, topology.Invalid, 0, cands[:0]) {
				visit(state{int32(int(c.Link)*numVCs + c.VC), dst})
			}
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		link := topology.LinkID(int(s.v) / numVCs)
		l, ok := topo.LinkByID(link)
		if !ok || l.To == s.dst {
			continue
		}
		cands = fn.Candidates(l.To, s.dst, link, int(s.v)%numVCs, cands[:0])
		for _, c := range cands {
			to := int32(int(c.Link)*numVCs + c.VC)
			if e := [2]int32{s.v, to}; !seenEdge[e] {
				seenEdge[e] = true
				adj[s.v] = append(adj[s.v], to)
			}
			visit(state{to, s.dst})
		}
	}
	return adj
}

// TestBuildCDGMatchesReference: BuildCDG's adjacency, order included, equals
// the map-based walk for every registered function and its escape, on every
// topology family, at each function's minimum VC count.
func TestBuildCDGMatchesReference(t *testing.T) {
	hc, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.MustCube([]int{4, 4}, true),
		topology.MustCube([]int{4, 4}, false),
		hc,
		topology.MustFatTree(4, 2),
		topology.MustFullMesh(6),
	}
	covered := make(map[string]bool)
	for _, topo := range topos {
		for _, name := range Names() {
			var fn Func
			for vcs := 1; vcs <= 4 && fn == nil; vcs++ {
				if f, err := New(name, topo, vcs); err == nil {
					fn = f
				}
			}
			if fn == nil {
				continue // function does not apply to this family
			}
			covered[name] = true
			for _, f := range []Func{fn, fn.Escape()} {
				g := BuildCDG(topo, f)
				want := referenceCDG(topo, f)
				if g.NumVertices() != len(want) {
					t.Fatalf("%s %s: %d vertices, reference %d", topo.Name(), f.Name(), g.NumVertices(), len(want))
				}
				for v := range want {
					if got := g.Out(int32(v)); !slices.Equal(got, want[v]) {
						t.Fatalf("%s %s vcs=%d: Out(%d) = %v, reference %v",
							topo.Name(), f.Name(), f.NumVCs(), v, got, want[v])
					}
				}
			}
		}
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("%s built on none of the topologies", name)
		}
	}
}

// TestEscapeGraphMatchesOwnWalk: for Duato's function the escape graph its
// walk records at every state the whole function reaches equals, edge for
// edge, the graph of the escape's own walk — adaptive excursions lead the
// escape nowhere its own states do not — and the escape is connected and a
// subfunction there.
func TestEscapeGraphMatchesOwnWalk(t *testing.T) {
	hc, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		topo  topology.Topology
		vcs   int
		edges int
	}{
		{topology.MustCube([]int{8, 8}, true), 3, 640},
		{topology.MustCube([]int{4, 6}, true), 3, 196},
		{topology.MustCube([]int{4, 4, 4}, true), 3, 1056},
		{topology.MustCube([]int{6, 6}, false), 2, 196},
		{hc, 2, 96},
	} {
		fn, err := NewDuato(c.topo, c.vcs)
		if err != nil {
			t.Fatal(err)
		}
		e := BuildCDG(c.topo, fn).Escape()
		if e.Stuck != "" || e.Extra != "" {
			t.Errorf("%s: escape facts %q %q", c.topo.Name(), e.Stuck, e.Extra)
		}
		got, want := e.Graph.SortedAdjacency(), BuildCDG(c.topo, fn.Escape()).SortedAdjacency()
		if !slices.Equal(got, want) {
			t.Errorf("%s: escape graph on the function's states has %d edges, on its own %d",
				c.topo.Name(), len(got), len(want))
		}
		if len(got) != c.edges {
			t.Errorf("%s: %d escape dependencies, want %d", c.topo.Name(), len(got), c.edges)
		}
	}
}

// BenchmarkBuildCDG times one uncached build on a 16x16 torus, for Duato's
// full function (whose walk also asks the escape at every state) and its
// escape subfunction alone.
func BenchmarkBuildCDG(b *testing.B) {
	topo := topology.MustCube([]int{16, 16}, true)
	fn, err := NewDuato(topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []Func{fn, fn.Escape()} {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildCDG(topo, f)
			}
		})
	}
}
