package routing

import (
	"testing"

	"repro/internal/topology"
)

func TestWestFirstValidation(t *testing.T) {
	if _, err := NewWestFirst(mesh44(), 0); err == nil {
		t.Fatal("0 VCs accepted")
	}
	if _, err := NewWestFirst(torus44(), 1); err == nil {
		t.Fatal("torus accepted (turn model needs a mesh)")
	}
	if _, err := NewWestFirst(topology.MustCube([]int{4, 4, 4}, false), 1); err == nil {
		t.Fatal("3-D mesh accepted")
	}
	if f, err := New("westfirst", mesh44(), 2); err != nil || f.Name() != "westfirst" {
		t.Fatalf("factory: %v %v", f, err)
	}
}

func TestWestFirstWestExclusive(t *testing.T) {
	topo := mesh44()
	fn, _ := NewWestFirst(topo, 2)
	// From (3,1) to (0,3): dx = -3, dy = +2 -> only the west link offered.
	src := topo.NodeAt([]int{3, 1})
	dst := topo.NodeAt([]int{0, 3})
	cands := fn.Candidates(src, dst, topology.Invalid, 0, nil)
	if len(cands) != 2 { // one link, two VCs
		t.Fatalf("candidates = %v", cands)
	}
	l, _ := topo.LinkByID(cands[0].Link)
	if l.Dim != 0 || l.Dir != topology.Minus {
		t.Fatalf("west not exclusive: %+v", l)
	}
}

func TestWestFirstAdaptiveEastAndVertical(t *testing.T) {
	topo := mesh44()
	fn, _ := NewWestFirst(topo, 1)
	// From (0,0) to (2,3): dx = +2, dy = +3 -> east and north both offered.
	src := topo.NodeAt([]int{0, 0})
	dst := topo.NodeAt([]int{2, 3})
	cands := fn.Candidates(src, dst, topology.Invalid, 0, nil)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	dims := map[int]bool{}
	for _, c := range cands {
		l, _ := topo.LinkByID(c.Link)
		dims[l.Dim] = true
		if l.Dim == 0 && l.Dir != topology.Plus {
			t.Fatal("westward candidate after west phase")
		}
	}
	if !dims[0] || !dims[1] {
		t.Fatalf("not adaptive across dims: %v", dims)
	}
}

func TestWestFirstMinimalAndComplete(t *testing.T) {
	topo := mesh44()
	fn, _ := NewWestFirst(topo, 1)
	for src := topology.Node(0); int(src) < topo.Nodes(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Nodes(); dst++ {
			if src == dst {
				continue
			}
			hops := followDeterministic(t, topo, fn, src, dst)
			if hops != topo.Distance(src, dst) {
				t.Fatalf("west-first %d->%d took %d hops, want %d", src, dst, hops, topo.Distance(src, dst))
			}
		}
	}
	if err := escapeHolds(topo, fn); err != nil {
		t.Fatal(err)
	}
}

// TestWestFirstCDGAcyclic is the turn-model theorem, checked mechanically:
// prohibiting the two turns into west leaves the full dependency graph (all
// VCs, no escape split) acyclic.
func TestWestFirstCDGAcyclic(t *testing.T) {
	for _, vcs := range []int{1, 2, 3} {
		for _, topo := range []topology.Topology{mesh44(), topology.MustCube([]int{8, 8}, false)} {
			fn, err := NewWestFirst(topo, vcs)
			if err != nil {
				t.Fatal(err)
			}
			if err := escapeHolds(topo, fn); err != nil {
				t.Errorf("vcs=%d %s: %v", vcs, topo.Name(), err)
			}
		}
	}
}

func TestNegativeFirstValidation(t *testing.T) {
	if _, err := NewNegativeFirst(mesh44(), 0); err == nil {
		t.Fatal("0 VCs accepted")
	}
	if _, err := NewNegativeFirst(torus44(), 1); err == nil {
		t.Fatal("torus accepted")
	}
	if f, err := New("negativefirst", topology.MustCube([]int{3, 3, 3}, false), 2); err != nil || f.Name() != "negativefirst" {
		t.Fatalf("factory: %v %v", f, err)
	}
}

func TestNegativeFirstPhases(t *testing.T) {
	topo := mesh44()
	fn, _ := NewNegativeFirst(topo, 1)
	// Mixed offsets (-x, +y): only the negative hop offered first.
	src := topo.NodeAt([]int{3, 0})
	dst := topo.NodeAt([]int{1, 2})
	cands := fn.Candidates(src, dst, topology.Invalid, 0, nil)
	if len(cands) != 1 {
		t.Fatalf("phase-one candidates = %v", cands)
	}
	l, _ := topo.LinkByID(cands[0].Link)
	if l.Dir != topology.Minus {
		t.Fatalf("phase one offered positive hop: %+v", l)
	}
	// Two negative offsets: both offered (adaptive).
	src2 := topo.NodeAt([]int{3, 3})
	dst2 := topo.NodeAt([]int{1, 1})
	cands = fn.Candidates(src2, dst2, topology.Invalid, 0, cands[:0])
	if len(cands) != 2 {
		t.Fatalf("adaptive negative candidates = %v", cands)
	}
	// All-positive remainder: both positive dims offered.
	src3 := topo.NodeAt([]int{0, 0})
	dst3 := topo.NodeAt([]int{2, 2})
	cands = fn.Candidates(src3, dst3, topology.Invalid, 0, cands[:0])
	if len(cands) != 2 {
		t.Fatalf("adaptive positive candidates = %v", cands)
	}
}

func TestNegativeFirstMinimalEverywhere(t *testing.T) {
	for _, topo := range []topology.Topology{mesh44(), topology.MustCube([]int{3, 3, 3}, false)} {
		fn, err := NewNegativeFirst(topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		for src := topology.Node(0); int(src) < topo.Nodes(); src++ {
			for dst := topology.Node(0); int(dst) < topo.Nodes(); dst++ {
				if src == dst {
					continue
				}
				hops := followDeterministic(t, topo, fn, src, dst)
				if hops != topo.Distance(src, dst) {
					t.Fatalf("%s: %d->%d took %d hops", topo.Name(), src, dst, hops)
				}
			}
		}
		if err := escapeHolds(topo, fn); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNegativeFirstCDGAcyclic machine-checks the turn-model theorem in both
// two and three dimensions.
func TestNegativeFirstCDGAcyclic(t *testing.T) {
	for _, topo := range []topology.Topology{
		mesh44(),
		topology.MustCube([]int{8, 8}, false),
		topology.MustCube([]int{3, 3, 3}, false),
	} {
		for _, vcs := range []int{1, 2} {
			fn, err := NewNegativeFirst(topo, vcs)
			if err != nil {
				t.Fatal(err)
			}
			if err := escapeHolds(topo, fn); err != nil {
				t.Errorf("%s vcs=%d: %v", topo.Name(), vcs, err)
			}
		}
	}
}
