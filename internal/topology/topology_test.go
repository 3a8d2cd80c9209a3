package topology

import (
	"testing"
	"testing/quick"
)

func TestNewCubeValidation(t *testing.T) {
	if _, err := NewCube(nil, false); err == nil {
		t.Fatal("empty radix accepted")
	}
	if _, err := NewCube([]int{4, 1}, false); err == nil {
		t.Fatal("radix 1 accepted")
	}
	if _, err := NewCube([]int{3, 5}, true); err != nil {
		t.Fatalf("valid cube rejected: %v", err)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	topos := []*Cube{
		MustCube([]int{4, 4}, false),
		MustCube([]int{8, 8}, true),
		MustCube([]int{3, 5, 2}, true),
	}
	for _, c := range topos {
		buf := make([]int, c.Dims())
		for n := Node(0); int(n) < c.Nodes(); n++ {
			coord := c.Coord(n, buf)
			for d, x := range coord {
				if x < 0 || x >= c.Radix(d) {
					t.Fatalf("%s: node %d coordinate %d out of range in dim %d", c.Name(), n, x, d)
				}
			}
			if back := c.NodeAt(coord); back != n {
				t.Fatalf("%s: round trip %d -> %v -> %d", c.Name(), n, coord, back)
			}
		}
	}
}

func TestNodesCount(t *testing.T) {
	c := MustCube([]int{3, 4, 5}, false)
	if c.Nodes() != 60 {
		t.Fatalf("Nodes = %d, want 60", c.Nodes())
	}
	h, err := NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 32 || h.Dims() != 5 {
		t.Fatalf("hypercube: nodes=%d dims=%d", h.Nodes(), h.Dims())
	}
}

func TestNeighborMeshBoundaries(t *testing.T) {
	c := MustCube([]int{4, 4}, false)
	// Corner (0,0): no Minus neighbor in either dimension.
	n := c.NodeAt([]int{0, 0})
	if _, ok := c.Neighbor(n, 0, Minus); ok {
		t.Fatal("mesh corner has Minus neighbor in dim 0")
	}
	if _, ok := c.Neighbor(n, 1, Minus); ok {
		t.Fatal("mesh corner has Minus neighbor in dim 1")
	}
	if nb, ok := c.Neighbor(n, 0, Plus); !ok || nb != c.NodeAt([]int{1, 0}) {
		t.Fatalf("Plus neighbor of corner wrong: %d, %v", nb, ok)
	}
	// Far corner (3,3): no Plus neighbor.
	f := c.NodeAt([]int{3, 3})
	if _, ok := c.Neighbor(f, 0, Plus); ok {
		t.Fatal("mesh far corner has Plus neighbor in dim 0")
	}
}

func TestNeighborTorusWraps(t *testing.T) {
	c := MustCube([]int{4, 4}, true)
	n := c.NodeAt([]int{0, 2})
	nb, ok := c.Neighbor(n, 0, Minus)
	if !ok || nb != c.NodeAt([]int{3, 2}) {
		t.Fatalf("torus wrap Minus: got %d ok=%v", nb, ok)
	}
	f := c.NodeAt([]int{3, 1})
	nb, ok = c.Neighbor(f, 0, Plus)
	if !ok || nb != c.NodeAt([]int{0, 1}) {
		t.Fatalf("torus wrap Plus: got %d ok=%v", nb, ok)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	// Following (dim,dir) then (dim,opposite) returns to the start.
	for _, c := range []*Cube{MustCube([]int{4, 3}, false), MustCube([]int{5, 4}, true)} {
		for n := Node(0); int(n) < c.Nodes(); n++ {
			for dim := 0; dim < c.Dims(); dim++ {
				for _, dir := range []Dir{Plus, Minus} {
					nb, ok := c.Neighbor(n, dim, dir)
					if !ok {
						continue
					}
					back, ok2 := c.Neighbor(nb, dim, dir.Opposite())
					if !ok2 || back != n {
						t.Fatalf("%s: neighbor not symmetric at node %d dim %d dir %v", c.Name(), n, dim, dir)
					}
				}
			}
		}
	}
}

func TestLinkByIDConsistency(t *testing.T) {
	for _, c := range []*Cube{MustCube([]int{4, 4}, false), MustCube([]int{4, 4}, true)} {
		for id := 0; id < c.NumLinkSlots(); id++ {
			l, ok := c.LinkByID(LinkID(id))
			if !ok {
				continue
			}
			if l.ID != LinkID(id) {
				t.Fatalf("link ID mismatch: %d vs %d", l.ID, id)
			}
			gotID, gotOK := c.OutSlot(l.From, 2*l.Dim+int(l.Dir))
			if !gotOK || gotID != l.ID {
				t.Fatalf("OutSlot disagrees with LinkByID for %+v", l)
			}
			nb, _ := c.Neighbor(l.From, l.Dim, l.Dir)
			if nb != l.To {
				t.Fatalf("link target mismatch: %+v, neighbor %d", l, nb)
			}
		}
	}
	if _, ok := MustCube([]int{4, 4}, true).LinkByID(Invalid); ok {
		t.Fatal("Invalid link resolved")
	}
}

func TestLinkCounts(t *testing.T) {
	mesh := MustCube([]int{4, 4}, false)
	// 2D 4x4 mesh: 2 * (3*4 + 3*4) = 48 unidirectional links.
	if got := len(AllLinks(mesh)); got != 48 {
		t.Fatalf("mesh links = %d, want 48", got)
	}
	torus := MustCube([]int{4, 4}, true)
	// Torus: every slot exists: 16 nodes * 4 = 64.
	if got := len(AllLinks(torus)); got != 64 {
		t.Fatalf("torus links = %d, want 64", got)
	}
}

func TestWrapFlag(t *testing.T) {
	c := MustCube([]int{4, 4}, true)
	wraps := 0
	for _, l := range AllLinks(c) {
		fromX := c.Coord(l.From, make([]int, 2))[l.Dim]
		if l.Wrap {
			wraps++
			if !(l.Dir == Plus && fromX == 3 || l.Dir == Minus && fromX == 0) {
				t.Fatalf("link flagged wrap incorrectly: %+v fromX=%d", l, fromX)
			}
		}
	}
	// Each dimension has 4 rows/cols, each with 2 wrap links (one per direction).
	if wraps != 16 {
		t.Fatalf("wrap links = %d, want 16", wraps)
	}
	for _, l := range AllLinks(MustCube([]int{4, 4}, false)) {
		if l.Wrap {
			t.Fatalf("mesh link flagged wrap: %+v", l)
		}
	}
}

func TestDistanceMesh(t *testing.T) {
	c := MustCube([]int{4, 4}, false)
	a := c.NodeAt([]int{0, 0})
	b := c.NodeAt([]int{3, 2})
	if d := c.Distance(a, b); d != 5 {
		t.Fatalf("mesh distance = %d, want 5", d)
	}
	if d := c.Distance(a, a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestDistanceTorus(t *testing.T) {
	c := MustCube([]int{8, 8}, true)
	a := c.NodeAt([]int{0, 0})
	b := c.NodeAt([]int{7, 6}) // wrap: 1 + 2
	if d := c.Distance(a, b); d != 3 {
		t.Fatalf("torus distance = %d, want 3", d)
	}
}

func TestOffsetsFollowHops(t *testing.T) {
	// Property: taking one hop in the direction of a nonzero offset reduces
	// the total distance by exactly one, for mesh and torus alike.
	for _, c := range []*Cube{MustCube([]int{5, 5}, false), MustCube([]int{6, 4}, true)} {
		buf := make([]int, c.Dims())
		prop := func(sa, sb uint16) bool {
			a := Node(int(sa) % c.Nodes())
			b := Node(int(sb) % c.Nodes())
			cur := a
			for cur != b {
				off := c.Offsets(cur, b, buf)
				moved := false
				for dim, o := range off {
					if o == 0 {
						continue
					}
					dir := Plus
					if o < 0 {
						dir = Minus
					}
					nb, ok := c.Neighbor(cur, dim, dir)
					if !ok {
						return false // minimal offset must always be followable
					}
					before := c.Distance(cur, b)
					after := c.Distance(nb, b)
					if after != before-1 {
						return false
					}
					cur = nb
					moved = true
					break
				}
				if !moved {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestOffsetsTieBreakPlus(t *testing.T) {
	c := MustCube([]int{8, 8}, true)
	a := c.NodeAt([]int{0, 0})
	b := c.NodeAt([]int{4, 0}) // exactly half way: tie resolves Plus
	off := c.Offsets(a, b, make([]int, 2))
	if off[0] != 4 {
		t.Fatalf("tie offset = %d, want +4", off[0])
	}
}

func TestOffsetsZeroAtDestination(t *testing.T) {
	c := MustCube([]int{4, 4, 4}, true)
	buf := make([]int, 3)
	for n := Node(0); int(n) < c.Nodes(); n += 7 {
		for _, o := range c.Offsets(n, n, buf) {
			if o != 0 {
				t.Fatalf("self offsets nonzero: %v", buf)
			}
		}
	}
}

func TestHypercubeNeighbors(t *testing.T) {
	h, err := NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	// In a hypercube every node has exactly Dims neighbors, each differing in
	// one bit.
	for n := Node(0); int(n) < h.Nodes(); n++ {
		count := 0
		for dim := 0; dim < h.Dims(); dim++ {
			for _, dir := range []Dir{Plus, Minus} {
				nb, ok := h.Neighbor(n, dim, dir)
				if !ok {
					continue
				}
				count++
				if int(n)^int(nb) != 1<<dim {
					t.Fatalf("hypercube neighbor differs in wrong bit: %d vs %d (dim %d)", n, nb, dim)
				}
			}
		}
		if count != h.Dims() {
			t.Fatalf("node %d has %d neighbors, want %d", n, count, h.Dims())
		}
	}
}

func TestNames(t *testing.T) {
	if got := MustCube([]int{8, 8}, true).Name(); got != "8-ary 2-cube (torus)" {
		t.Fatalf("name = %q", got)
	}
	if got := MustCube([]int{3, 5}, false).Name(); got != "3x5 mesh" {
		t.Fatalf("name = %q", got)
	}
}

// TestDistanceIsAMetric: symmetry, identity, and the triangle inequality,
// property-checked over random node triples on meshes and tori.
func TestDistanceIsAMetric(t *testing.T) {
	for _, c := range []*Cube{
		MustCube([]int{5, 4}, false),
		MustCube([]int{6, 6}, true),
		MustCube([]int{3, 3, 3}, true),
	} {
		c := c
		prop := func(sa, sb, sc uint16) bool {
			a := Node(int(sa) % c.Nodes())
			b := Node(int(sb) % c.Nodes())
			x := Node(int(sc) % c.Nodes())
			if c.Distance(a, a) != 0 {
				return false
			}
			if c.Distance(a, b) != c.Distance(b, a) {
				return false
			}
			if a != b && c.Distance(a, b) <= 0 {
				return false
			}
			return c.Distance(a, x) <= c.Distance(a, b)+c.Distance(b, x)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// TestOffsetsSumToDistance: the probe's Xi-offsets always account exactly
// for the minimal distance.
func TestOffsetsSumToDistance(t *testing.T) {
	for _, c := range []*Cube{MustCube([]int{7, 5}, false), MustCube([]int{8, 8}, true)} {
		c := c
		buf := make([]int, c.Dims())
		prop := func(sa, sb uint16) bool {
			a := Node(int(sa) % c.Nodes())
			b := Node(int(sb) % c.Nodes())
			sum := 0
			for _, o := range c.Offsets(a, b, buf) {
				if o < 0 {
					sum -= o
				} else {
					sum += o
				}
			}
			return sum == c.Distance(a, b)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}
