package routing

import (
	"testing"

	"repro/internal/topology"
)

// TestUpDownExhaustive walks the full candidate graph of up*/down* routing
// for every host pair on two tree shapes: every candidate at every reachable
// state must make strictly minimal progress, a down hop must never be
// followed by an up hop, and every path must terminate at the destination
// within Distance(src, dst) hops.
func TestUpDownExhaustive(t *testing.T) {
	for _, ft := range []*topology.FatTree{
		topology.MustFatTree(2, 3),
		topology.MustFatTree(4, 2),
	} {
		fn, err := NewUpDown(ft, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf []Candidate
		for src := topology.Node(0); int(src) < ft.Hosts(); src++ {
			for dst := topology.Node(0); int(dst) < ft.Hosts(); dst++ {
				if src == dst {
					continue
				}
				// Frontier of (node, incoming link) states; the candidate sets
				// are inLink-independent, so tracking the incoming direction
				// suffices for the no-turn check.
				type state struct {
					at   topology.Node
					down bool // arrived via a down hop
				}
				frontier := []state{{src, false}}
				seen := map[state]bool{frontier[0]: true}
				for len(frontier) > 0 {
					st := frontier[0]
					frontier = frontier[1:]
					if st.at == dst {
						continue
					}
					buf = fn.Candidates(st.at, dst, topology.Invalid, 0, buf[:0])
					if len(buf) == 0 {
						t.Fatalf("%s: no route from %d toward %d (src %d)", ft.Name(), st.at, dst, src)
					}
					for _, c := range buf {
						l, ok := ft.LinkByID(c.Link)
						if !ok {
							t.Fatalf("%s: candidate %d is not a link", ft.Name(), c.Link)
						}
						if l.From != st.at {
							t.Fatalf("%s: candidate %+v does not leave %d", ft.Name(), l, st.at)
						}
						if ft.Distance(l.To, dst) != ft.Distance(st.at, dst)-1 {
							t.Fatalf("%s: hop %d -> %d toward %d is not minimal", ft.Name(), st.at, l.To, dst)
						}
						if st.down && l.Dir == topology.Plus {
							t.Fatalf("%s: down-to-up turn at %d toward %d", ft.Name(), st.at, dst)
						}
						next := state{l.To, l.Dir == topology.Minus}
						if !seen[next] {
							seen[next] = true
							frontier = append(frontier, next)
						}
					}
				}
				if !seen[state{dst, true}] && !seen[state{dst, false}] {
					t.Fatalf("%s: destination %d unreachable from %d", ft.Name(), dst, src)
				}
			}
		}
	}
}

// TestUpDownRotationSpreadsRoots: the up-phase rotation keys on the
// destination, so distinct destinations lead with distinct up ports at a
// multi-up switch — the Sancho-style balancing of the redundant root paths —
// while repeated calls for one pair stay identical (table/replay purity).
func TestUpDownRotationSpreadsRoots(t *testing.T) {
	ft := topology.MustFatTree(4, 2)
	fn, err := NewUpDown(ft, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A leaf switch (level 1) has 4 up ports; pick one and destinations
	// outside its subtree.
	var leaf topology.Node
	for v := topology.Node(0); int(v) < ft.Nodes(); v++ {
		if ft.Level(v) == 1 {
			leaf = v
			break
		}
	}
	first := map[topology.LinkID]bool{}
	for dst := topology.Node(0); int(dst) < ft.Hosts(); dst++ {
		if ft.InSubtree(leaf, dst) {
			continue
		}
		a := fn.Candidates(leaf, dst, topology.Invalid, 0, nil)
		b := fn.Candidates(leaf, dst, topology.Invalid, 0, nil)
		if len(a) != len(b) || len(a) != ft.Arity() {
			t.Fatalf("up candidates for dst %d: %d then %d, want %d", dst, len(a), len(b), ft.Arity())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("candidates for (leaf %d, dst %d) not deterministic", leaf, dst)
			}
		}
		first[a[0].Link] = true
	}
	// Hosts below the leaf (dst ≡ leaf digit mod k) never route up, so one
	// residue class — one first-choice port — is structurally absent.
	if len(first) < ft.Arity()-1 {
		t.Errorf("destination rotation used %d of %d up ports as first choice", len(first), ft.Arity())
	}
}

// TestVCFreeCandidates pins the Cano scheme: at injection the direct link
// leads and every label-increasing intermediate (exactly those) follows; in
// transit only the direct link remains.
func TestVCFreeCandidates(t *testing.T) {
	m := topology.MustFullMesh(8)
	fn, err := NewVCFree(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for src := topology.Node(0); int(src) < m.Nodes(); src++ {
		for dst := topology.Node(0); int(dst) < m.Nodes(); dst++ {
			if src == dst {
				continue
			}
			inj := fn.Candidates(src, dst, topology.Invalid, 0, nil)
			if len(inj) == 0 || inj[0].Link != m.LinkTo(src, dst) {
				t.Fatalf("injection (%d -> %d) does not lead with the direct link: %v", src, dst, inj)
			}
			want := map[topology.LinkID]bool{m.LinkTo(src, dst): true}
			for i := topology.Node(0); int(i) < m.Nodes(); i++ {
				if i != src && i != dst && m.LinkTo(src, i) < m.LinkTo(i, dst) {
					want[m.LinkTo(src, i)] = true
				}
			}
			got := map[topology.LinkID]bool{}
			for _, c := range inj {
				got[c.Link] = true
				l, _ := m.LinkByID(c.Link)
				if l.From != src {
					t.Fatalf("candidate %d does not leave %d", c.Link, src)
				}
				// Label order: a detour's first hop must be able to continue
				// home on a strictly larger label.
				if l.To != dst && m.LinkTo(src, l.To) >= m.LinkTo(l.To, dst) {
					t.Fatalf("injection (%d -> %d) offers label-decreasing detour via %d", src, dst, l.To)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("injection (%d -> %d) candidates %v, want exactly %v", src, dst, got, want)
			}
			// Transit from any detour intermediate: direct link only.
			for _, c := range inj {
				l, _ := m.LinkByID(c.Link)
				if l.To == dst {
					continue
				}
				tr := fn.Candidates(l.To, dst, c.Link, 0, nil)
				if len(tr) != 1 || tr[0].Link != m.LinkTo(l.To, dst) {
					t.Fatalf("transit at %d toward %d: %v, want only the direct link", l.To, dst, tr)
				}
			}
		}
	}
}

// TestVCFreeNoLabelOffersCycles: dropping the label restriction must produce
// at least one label-decreasing detour (the CDG cycle source the prover
// rejects), or the control variant would not be a control.
func TestVCFreeNoLabelOffersCycles(t *testing.T) {
	m := topology.MustFullMesh(6)
	fn, err := NewVCFreeNoLabel(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for src := topology.Node(0); int(src) < m.Nodes(); src++ {
		for dst := topology.Node(0); int(dst) < m.Nodes(); dst++ {
			if src == dst {
				continue
			}
			for _, c := range fn.Candidates(src, dst, topology.Invalid, 0, nil) {
				l, _ := m.LinkByID(c.Link)
				if l.To != dst && m.LinkTo(src, l.To) >= m.LinkTo(l.To, dst) {
					bad++
				}
			}
		}
	}
	if bad == 0 {
		t.Fatal("unlabeled variant never offered a label-decreasing detour")
	}
}

// TestFamilyMismatchErrors: the family-specific constructors reject foreign
// topologies with a clear error instead of panicking later.
func TestFamilyMismatchErrors(t *testing.T) {
	mesh := topology.MustCube([]int{4, 4}, false)
	if _, err := NewUpDown(mesh, 1); err == nil {
		t.Error("updown accepted a mesh")
	}
	if _, err := NewVCFree(mesh, 1); err == nil {
		t.Error("vcfree accepted a mesh")
	}
	if _, err := New("dor", topology.MustFatTree(2, 2), 2); err == nil {
		t.Error("dor accepted a fat tree")
	}
	if _, err := New("duato", topology.MustFullMesh(4), 3); err == nil {
		t.Error("duato accepted a full mesh")
	}
	// And the registry constructor routes the new names correctly.
	if fn, err := New("updown", topology.MustFatTree(2, 2), 1); err != nil || fn.Name() != "updown" {
		t.Errorf("New(updown) = %v, %v", fn, err)
	}
	if fn, err := New("vcfree", topology.MustFullMesh(4), 1); err != nil || fn.Name() != "vcfree" {
		t.Errorf("New(vcfree) = %v, %v", fn, err)
	}
}

// TestInLinkDependentStaysAlgorithmic: freezing vcfree into a (here, dst)
// table would erase the transit restriction, so the deprecated selector the
// benchmark module still routes through must hand both full-mesh functions
// back unchanged, and updown with them.
func TestInLinkDependentStaysAlgorithmic(t *testing.T) {
	m := topology.MustFullMesh(8)
	ft := topology.MustFatTree(2, 2)
	for _, c := range []struct {
		name string
		topo topology.Topology
	}{{"vcfree", m}, {"vcfree-nolabel", m}, {"updown", ft}} {
		fn, err := New(c.name, c.topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, info := SelectTableCached(fn, c.topo, DefaultTableMaxNodes); got != fn || info != (TableInfo{}) {
			t.Errorf("%s: SelectTableCached = %T, %+v; want the function itself", c.name, got, info)
		}
	}
}
