package verify

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// referenceDelivery is the delivery walk proveDelivery ran before it read
// its facts from the CDG, kept as an oracle: its own reachable-state
// traversal in the same seeding and stack order (a map for the visited
// set), returning at the first stuck state. monotone is meaningful only
// when stuck is "". Candidates on missing links are skipped, as they were
// then. Channels are rendered through g, the function's graph.
func referenceDelivery(topo topology.Topology, fn routing.Func, g *routing.CDG) (stuck string, monotone bool) {
	numVCs := fn.NumVCs()
	type st struct {
		v   int32
		dst topology.Node
	}
	seen := make(map[st]bool)
	var stack []st
	var cands []routing.Candidate
	monotone = true
	follow := func(here, dst topology.Node) {
		for _, c := range cands {
			l, ok := topo.LinkByID(c.Link)
			if !ok {
				continue
			}
			if topo.Distance(l.To, dst) >= topo.Distance(here, dst) {
				monotone = false
			}
			if s := (st{int32(int(c.Link)*numVCs + c.VC), dst}); !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if src == dst {
				continue
			}
			cands = fn.Candidates(src, dst, topology.Invalid, 0, cands[:0])
			if len(cands) == 0 {
				return fmt.Sprintf("no candidates injecting at node %d toward %d", src, dst), false
			}
			follow(src, dst)
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
		if len(cands) == 0 {
			return fmt.Sprintf("stuck at node %d toward %d holding %s",
				l.To, s.dst, g.VertexName(s.v, topo)), false
		}
		follow(l.To, s.dst)
	}
	return "", monotone
}

// holey is DOR on a mesh with a dead end: a header arriving at node hole
// that is not yet delivered is offered nothing.
type holey struct {
	routing.Func
	hole topology.Node
}

func (f *holey) Name() string         { return "holey-test" }
func (f *holey) Escape() routing.Func { return f }
func (f *holey) Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []routing.Candidate) []routing.Candidate {
	if here == f.hole && inLink != topology.Invalid {
		return out
	}
	return f.Func.Candidates(here, dst, inLink, inVC, out)
}

// eastBorder is DOR on a mesh that also offers the east slot at every
// east-border node, where the mesh has no link: a header taking it would
// leave the network.
type eastBorder struct {
	routing.Func
	topo topology.Geometry
}

func (f *eastBorder) Name() string         { return "eastborder-test" }
func (f *eastBorder) Escape() routing.Func { return f }
func (f *eastBorder) Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []routing.Candidate) []routing.Candidate {
	out = f.Func.Candidates(here, dst, inLink, inVC, out)
	if slot, ok := f.topo.OutSlot(here, int(topology.Plus)); !ok {
		out = append(out, routing.Candidate{Link: slot, VC: 0})
	}
	return out
}

// TestDeliveryFactsMatchReference: the stuck text and monotone flag
// BuildCDG records equal the reference delivery walk's for every registered
// function and its escape on every topology family, and for test functions
// that are stuck, non-monotone and offer a missing link.
func TestDeliveryFactsMatchReference(t *testing.T) {
	hc, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		topo topology.Topology
		fn   routing.Func
	}
	var rows []row
	for _, topo := range []topology.Topology{
		topology.MustCube([]int{4, 4}, true),
		topology.MustCube([]int{4, 4}, false),
		hc,
		topology.MustFatTree(4, 2),
		topology.MustFullMesh(6),
	} {
		for _, name := range routing.Names() {
			for vcs := 1; vcs <= 4; vcs++ {
				if fn, err := routing.New(name, topo, vcs); err == nil {
					rows = append(rows, row{topo, fn}, row{topo, fn.Escape()})
					break
				}
			}
		}
	}
	mesh := topology.MustCube([]int{3, 3}, false)
	dor, err := routing.New("dor", mesh, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := topology.MustCube([]int{4}, true)
	rows = append(rows,
		row{mesh, &holey{Func: dor, hole: 4}},
		row{mesh, &eastBorder{Func: dor, topo: mesh}},
		row{ring, &pingpong{topo: ring}},
	)

	stuck := 0
	for _, r := range rows {
		g := routing.BuildCDG(r.topo, r.fn)
		d := g.Delivery()
		wantStuck, wantMonotone := referenceDelivery(r.topo, r.fn, g)
		if d.Stuck != wantStuck {
			t.Errorf("%s %s: stuck %q, reference %q", r.topo.Name(), r.fn.Name(), d.Stuck, wantStuck)
		}
		if wantStuck != "" {
			stuck++
		} else if d.Monotone != wantMonotone {
			t.Errorf("%s %s: monotone %v, reference %v", r.topo.Name(), r.fn.Name(), d.Monotone, wantMonotone)
		}
		if _, missing := r.fn.(*eastBorder); (d.Missing != "") != missing {
			t.Errorf("%s %s: missing link %q", r.topo.Name(), r.fn.Name(), d.Missing)
		}
	}
	if stuck != 1 {
		t.Errorf("%d stuck rows, want 1 (holey)", stuck)
	}
}

// TestMissingLinkRefused: a function that offers the east border slot of a
// 3x3 mesh is refused with a counterexample naming the node, the
// destination and the slot. The wormhole engine would panic the moment a
// header took that slot.
func TestMissingLinkRefused(t *testing.T) {
	mesh := topology.MustCube([]int{3, 3}, false)
	dor, err := routing.New("dor", mesh, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := &eastBorder{Func: dor, topo: mesh}
	sp := Spec{Topo: mesh, NumVCs: 1}
	if dl := proveDeadlock(sp, fn); !dl.OK {
		t.Fatalf("deadlock proof failed: %+v", dl.Proof)
	}
	p := proveLivelock(sp, protocol.Wormhole, fn)
	if p.OK {
		t.Fatal("function offering a missing link certified")
	}
	// The first east-border state in walk order: node 2 (x=2, y=0)
	// injecting toward node 0, offered its own east slot.
	slot, _ := mesh.OutSlot(2, int(topology.Plus))
	want := fmt.Sprintf("node 2 toward 0 offers link#%d vc0", slot)
	if len(p.Counterexample) != 1 || p.Counterexample[0] != want {
		t.Fatalf("counterexample %q, want [%q]", p.Counterexample, want)
	}
	if !strings.Contains(p.Detail, "does not have") {
		t.Fatalf("detail %q", p.Detail)
	}
}

// counting forwards to a routing function and counts Candidates calls. Each
// instance has a fresh name, so the process-wide CDG cache never serves it
// a graph built by an earlier test.
type counting struct {
	routing.Func
	name  string
	calls *int
	esc   *counting
}

var countingSeq atomic.Int64

func newCounting(fn routing.Func, calls *int) *counting {
	c := &counting{Func: fn, name: fmt.Sprintf("counting-%d", countingSeq.Add(1)), calls: calls}
	if esc := fn.Escape(); esc == fn {
		c.esc = c
	} else {
		c.esc = newCounting(esc, calls)
	}
	return c
}

func (c *counting) Name() string         { return c.name }
func (c *counting) Escape() routing.Func { return c.esc }
func (c *counting) Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []routing.Candidate) []routing.Candidate {
	*c.calls++
	return c.Func.Candidates(here, dst, inLink, inVC, out)
}

// TestOneWalkPerFunction: the deadlock and livelock proofs together query
// the routing function exactly as often as one BuildCDG of it plus one of
// its escape — each state space is walked once.
func TestOneWalkPerFunction(t *testing.T) {
	for _, c := range []struct {
		topo topology.Topology
		vcs  int
	}{
		{topology.MustCube([]int{8, 8}, true), 3},
		{topology.MustCube([]int{4, 4}, false), 2},
	} {
		duato, err := routing.New("duato", c.topo, c.vcs)
		if err != nil {
			t.Fatal(err)
		}
		var calls int
		fn := newCounting(duato, &calls)
		sp := Spec{Topo: c.topo, NumVCs: c.vcs}
		if dl := proveDeadlock(sp, fn); !dl.OK || dl.Method != "escape" {
			t.Fatalf("%s: deadlock proof %+v, want escape", c.topo.Name(), dl.Proof)
		}
		if p := proveLivelock(sp, protocol.Wormhole, fn); !p.OK {
			t.Fatalf("%s: livelock proof %+v", c.topo.Name(), p)
		}
		got := calls

		calls = 0
		routing.BuildCDG(c.topo, fn)
		routing.BuildCDG(c.topo, fn.Escape())
		if got != calls {
			t.Errorf("%s: proofs made %d Candidates calls, one walk of the function and its escape makes %d",
				c.topo.Name(), got, calls)
		}
	}
}
