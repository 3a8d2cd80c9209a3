package routing

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

func mesh44() topology.Geometry  { return topology.MustCube([]int{4, 4}, false) }
func torus44() topology.Geometry { return topology.MustCube([]int{4, 4}, true) }

// escapeHolds reads Duato's condition off fn's one walk on topo: every
// candidate names a link, fn's escape offers only channels fn offers and a
// candidate at every undelivered state fn reaches, and the escape's
// dependency graph there is acyclic. A connected escape with an acyclic
// graph delivers from every state, since no escape path repeats a channel.
func escapeHolds(topo topology.Topology, fn Func) error {
	g := BuildCDG(topo, fn)
	e := g.Escape()
	for _, fact := range []string{g.Delivery().Missing, e.Stuck, e.Extra} {
		if fact != "" {
			return fmt.Errorf("%s on %s: %s", fn.Name(), topo.Name(), fact)
		}
	}
	if cyc := e.Graph.FindCycle(); cyc != nil {
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = e.Graph.VertexName(v, topo)
		}
		return fmt.Errorf("%s has a channel dependency cycle on %s: %v", fn.Name(), topo.Name(), names)
	}
	return nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bogus", mesh44(), 2); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := NewDOR(mesh44(), 0); err == nil {
		t.Fatal("0 VCs accepted")
	}
	if _, err := NewDOR(torus44(), 1); err == nil {
		t.Fatal("torus DOR with 1 VC accepted (dateline needs 2)")
	}
	if _, err := NewDuato(mesh44(), 1); err == nil {
		t.Fatal("duato with 1 VC accepted")
	}
	if _, err := NewDuato(torus44(), 2); err == nil {
		t.Fatal("duato on torus with 2 VCs accepted (needs 2 escape + 1 adaptive)")
	}
	if f, err := New("dor", mesh44(), 1); err != nil || f.Name() != "dor" {
		t.Fatalf("dor: %v %v", f, err)
	}
	if f, err := New("duato", torus44(), 3); err != nil || f.Name() != "duato" {
		t.Fatalf("duato: %v %v", f, err)
	}
}

// followDeterministic walks a routing function's first candidate from src to
// dst and returns the hop count, or -1 on a loop/stuck condition.
func followDeterministic(t *testing.T, topo topology.Topology, fn Func, src, dst topology.Node) int {
	t.Helper()
	here := src
	inLink := topology.Invalid
	inVC := 0
	hops := 0
	var cands []Candidate
	for here != dst {
		if hops > topo.Nodes()*2 {
			return -1
		}
		cands = fn.Candidates(here, dst, inLink, inVC, cands[:0])
		if len(cands) == 0 {
			return -1
		}
		l, ok := topo.LinkByID(cands[0].Link)
		if !ok {
			t.Fatalf("candidate link does not exist at node %d", here)
		}
		if l.From != here {
			t.Fatalf("candidate link starts at %d, expected %d", l.From, here)
		}
		here, inLink, inVC = l.To, cands[0].Link, cands[0].VC
		hops++
	}
	return hops
}

func TestDORMeshMinimal(t *testing.T) {
	topo := mesh44()
	fn, err := NewDOR(topo, 2)
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
				t.Fatalf("dor mesh %d->%d took %d hops, want %d", src, dst, hops, topo.Distance(src, dst))
			}
		}
	}
}

func TestDORTorusMinimal(t *testing.T) {
	topo := torus44()
	fn, err := NewDOR(topo, 2)
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
				t.Fatalf("dor torus %d->%d took %d hops, want %d", src, dst, hops, topo.Distance(src, dst))
			}
		}
	}
}

func TestDORDimensionOrder(t *testing.T) {
	topo := mesh44()
	fn, _ := NewDOR(topo, 1)
	src := topo.NodeAt([]int{0, 0})
	dst := topo.NodeAt([]int{2, 3})
	// First hops must correct dimension 0 before dimension 1.
	cands := fn.Candidates(src, dst, topology.Invalid, 0, nil)
	l, _ := topo.LinkByID(cands[0].Link)
	if l.Dim != 0 || l.Dir != topology.Plus {
		t.Fatalf("dor first hop dim %d dir %v, want dim 0 +", l.Dim, l.Dir)
	}
	mid := topo.NodeAt([]int{2, 0})
	cands = fn.Candidates(mid, dst, topology.Invalid, 0, cands[:0])
	l, _ = topo.LinkByID(cands[0].Link)
	if l.Dim != 1 {
		t.Fatalf("dor second phase dim %d, want 1", l.Dim)
	}
}

func TestDORTorusDatelineClasses(t *testing.T) {
	topo := torus44()
	fn, _ := NewDOR(topo, 2)
	// The wraparound hop itself travels in class 1 (odd VC).
	src := topo.NodeAt([]int{3, 1})
	dst := topo.NodeAt([]int{1, 1}) // offset +2: 3 -> 0 (wrap) -> 1
	cands := fn.Candidates(src, dst, topology.Invalid, 0, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		l, _ := topo.LinkByID(c.Link)
		if !l.Wrap {
			t.Fatalf("expected wrap link first, got %+v", l)
		}
		if c.VC%2 != 1 {
			t.Fatalf("wraparound hop offered on even VC %d", c.VC)
		}
	}
	// After the wrap, continuing in the same dimension stays in class 1.
	wrapLink, _ := topo.OutSlot(src, int(topology.Plus))
	at0 := topo.NodeAt([]int{0, 1})
	cands = fn.Candidates(at0, dst, wrapLink, 1, cands[:0])
	for _, c := range cands {
		if c.VC%2 != 1 {
			t.Fatalf("post-dateline hop offered on even VC %d", c.VC)
		}
	}
	// With the wraparound still strictly ahead, hops travel in class 0.
	src2 := topo.NodeAt([]int{2, 0})
	dst2 := topo.NodeAt([]int{0, 0}) // +2 via the wrap: 2 -> 3 -> (wrap) 0
	cands = fn.Candidates(src2, dst2, topology.Invalid, 0, cands[:0])
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.VC%2 != 0 {
			t.Fatalf("pre-dateline hop offered on odd VC %d", c.VC)
		}
	}
	// A path that never crosses the dateline travels entirely in class 1.
	src3 := topo.NodeAt([]int{0, 0})
	dst3 := topo.NodeAt([]int{1, 0})
	cands = fn.Candidates(src3, dst3, topology.Invalid, 0, cands[:0])
	for _, c := range cands {
		if c.VC%2 != 1 {
			t.Fatalf("non-wrapping path offered class 0 VC %d", c.VC)
		}
	}
}

func TestDuatoOffersAdaptiveAndEscape(t *testing.T) {
	topo := torus44()
	fn, err := NewDuato(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.NodeAt([]int{0, 0})
	dst := topo.NodeAt([]int{2, 2})
	cands := fn.Candidates(src, dst, topology.Invalid, 0, nil)
	// Two profitable dims x one adaptive VC (vc 2) + one escape = 3.
	if len(cands) != 3 {
		t.Fatalf("candidate count = %d, want 3 (%v)", len(cands), cands)
	}
	for i, c := range cands[:len(cands)-1] {
		if c.VC < 2 {
			t.Fatalf("adaptive candidate %d on escape VC %d", i, c.VC)
		}
	}
	if last := cands[len(cands)-1]; last.VC >= 2 {
		t.Fatalf("last candidate VC %d is not an escape class", last.VC)
	}
}

func TestDuatoTorusEscapeIsMinimalDateline(t *testing.T) {
	topo := torus44()
	fn, _ := NewDuato(topo, 3)
	esc := fn.Escape()
	// From (3,0) to (0,0) the escape takes the torus-minimal wraparound hop,
	// in dateline class 1 (VC 1).
	src := topo.NodeAt([]int{3, 0})
	dst := topo.NodeAt([]int{0, 0})
	cands := esc.Candidates(src, dst, topology.Invalid, 0, nil)
	if len(cands) != 1 {
		t.Fatalf("escape candidates = %v", cands)
	}
	l, _ := topo.LinkByID(cands[0].Link)
	if !l.Wrap || l.Dir != topology.Plus {
		t.Fatalf("escape hop not the minimal wrap: %+v", l)
	}
	if cands[0].VC != 1 {
		t.Fatalf("wrap hop class = VC %d, want 1", cands[0].VC)
	}
	// From (2,0) to (0,0) the wrap lies ahead: class 0.
	src2 := topo.NodeAt([]int{2, 0})
	cands = esc.Candidates(src2, dst, topology.Invalid, 0, cands[:0])
	if len(cands) != 1 || cands[0].VC != 0 {
		t.Fatalf("pre-wrap escape class wrong: %v", cands)
	}
}

func TestDuatoEscapeReachesEverywhere(t *testing.T) {
	for _, topo := range []topology.Topology{mesh44(), topology.MustCube([]int{2, 2, 2}, false)} {
		fn, err := NewDuato(topo, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := escapeHolds(topo, fn); err != nil {
			t.Error(err)
		}
	}
	fn, err := NewDuato(torus44(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := escapeHolds(torus44(), fn); err != nil {
		t.Error(err)
	}
}

// TestTheoremCDGAcyclic is the static half of the paper's deadlock-freedom
// argument: "the routing algorithm used for wormhole switching is
// deadlock-free". Every configuration the simulator offers must have an
// acyclic (escape) channel dependency graph.
func TestTheoremCDGAcyclic(t *testing.T) {
	cases := []struct {
		topo topology.Topology
		mk   func(topology.Topology) (Func, error)
		name string
	}{
		{mesh44(), func(tp topology.Topology) (Func, error) { return NewDOR(tp, 1) }, "dor mesh 1vc"},
		{mesh44(), func(tp topology.Topology) (Func, error) { return NewDOR(tp, 3) }, "dor mesh 3vc"},
		{torus44(), func(tp topology.Topology) (Func, error) { return NewDOR(tp, 2) }, "dor torus 2vc"},
		{torus44(), func(tp topology.Topology) (Func, error) { return NewDOR(tp, 4) }, "dor torus 4vc"},
		{mesh44(), func(tp topology.Topology) (Func, error) { return NewDuato(tp, 2) }, "duato mesh 2vc"},
		{torus44(), func(tp topology.Topology) (Func, error) { return NewDuato(tp, 3) }, "duato torus 3vc"},
		{topology.MustCube([]int{8, 8}, true), func(tp topology.Topology) (Func, error) { return NewDuato(tp, 3) }, "duato torus8 3vc"},
		{topology.MustCube([]int{4, 4, 4}, true), func(tp topology.Topology) (Func, error) { return NewDOR(tp, 2) }, "dor 3d torus"},
	}
	for _, c := range cases {
		fn, err := c.mk(c.topo)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := escapeHolds(c.topo, fn); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestCDGDetectsKnownCycle feeds the checker a deliberately broken function
// (torus DOR with no dateline, the textbook deadlocked configuration) and
// requires it to find the cycle — proving the oracle is not vacuous.
func TestCDGDetectsKnownCycle(t *testing.T) {
	topo := torus44()
	fn := &brokenTorusDOR{topo: topo}
	g := BuildCDG(topo, fn)
	if g.FindCycle() == nil {
		t.Fatal("checker missed the classic torus ring cycle")
	}
	if err := escapeHolds(topo, fn); err == nil {
		t.Fatal("escapeHolds accepted a cyclic function")
	}
}

// brokenTorusDOR routes dimension order on a torus with a single VC and no
// dateline — its ring dependencies are cyclic.
type brokenTorusDOR struct{ topo topology.Geometry }

func (r *brokenTorusDOR) Name() string { return "broken-dor" }
func (r *brokenTorusDOR) NumVCs() int  { return 1 }
func (r *brokenTorusDOR) Escape() Func { return r }
func (r *brokenTorusDOR) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	offs := make([]int, r.topo.Dims())
	r.topo.Offsets(here, dst, offs)
	for d, o := range offs {
		if o == 0 {
			continue
		}
		dir := topology.Plus
		if o < 0 {
			dir = topology.Minus
		}
		link, _ := r.topo.OutSlot(here, 2*d+int(dir))
		return append(out, Candidate{Link: link, VC: 0})
	}
	return out
}

func TestCDGStatsAndAdjacency(t *testing.T) {
	topo := mesh44()
	fn, _ := NewDOR(topo, 1)
	g := BuildCDG(topo, fn)
	v, e, maxOut := g.Stats()
	if v == 0 || e == 0 || maxOut == 0 {
		t.Fatalf("degenerate CDG: v=%d e=%d max=%d", v, e, maxOut)
	}
	adj := g.SortedAdjacency()
	if len(adj) != e {
		t.Fatalf("adjacency length %d != edges %d", len(adj), e)
	}
	for i := 1; i < len(adj); i++ {
		a, b := adj[i-1], adj[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatal("adjacency not sorted/unique")
		}
	}
}

func TestVertexName(t *testing.T) {
	topo := mesh44()
	fn, _ := NewDOR(topo, 2)
	g := BuildCDG(topo, fn)
	link, _ := topo.OutSlot(0, int(topology.Plus))
	name := g.VertexName(g.VertexID(link, 1), topo)
	if name == "" {
		t.Fatal("empty vertex name")
	}
}
