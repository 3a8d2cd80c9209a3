package routing

import (
	"testing"

	"repro/internal/topology"
)

// tableCase pairs a topology with the routing functions it admits; the
// equivalence tests run every combination exhaustively.
type tableCase struct {
	label string
	topo  topology.Topology
	fns   []string
}

func tableCases(t *testing.T) []tableCase {
	t.Helper()
	hc, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	return []tableCase{
		{
			label: "torus4x4",
			topo:  topology.MustCube([]int{4, 4}, true),
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "mesh3x3",
			topo:  topology.MustCube([]int{3, 3}, false),
			fns:   []string{"dor", "duato", "dor-nodateline", "westfirst", "negativefirst"},
		},
		{
			label: "hypercube3",
			topo:  hc,
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "fattree2x2",
			topo:  topology.MustFatTree(2, 2),
			fns:   []string{"updown"},
		},
		{
			label: "fullmesh8",
			topo:  topology.MustFullMesh(8),
			fns:   []string{"vcfree", "vcfree-nolabel"},
		},
	}
}

func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTableMatchesOracle checks the correctness contract of table
// selection: for every (src, dst, inVC) — and for every incoming link, since
// the Func contract passes one — the representation Select picks returns
// exactly the candidate sequence the algorithmic oracle computes, element
// for element and in order. Order matters: the engines take the first free
// candidate, so any permutation would change simulation results. Cubes get
// the compressed table; the other families keep their function unchanged,
// which is what keeps vcfree's transit rule (it reads the incoming link).
func TestTableMatchesOracle(t *testing.T) {
	for _, tc := range tableCases(t) {
		_, isCube := tc.topo.(*topology.Cube)
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			tab, info := Select(fn, tc.topo)
			if isCube != (info.Mode == TableCompressed) || (!isCube && tab != fn) {
				t.Fatalf("%s/%s: selected %T (%v)", tc.label, name, tab, info.Mode)
			}
			var want, got []Candidate
			check := func(src, dst topology.Node, inLink topology.LinkID, inVC int) {
				want = fn.Candidates(src, dst, inLink, inVC, want[:0])
				got = tab.Candidates(src, dst, inLink, inVC, got[:0])
				if !sameCandidates(want, got) {
					t.Fatalf("%s/%s: src=%d dst=%d inLink=%d inVC=%d:\n table %v\noracle %v",
						tc.label, name, src, dst, inLink, inVC, got, want)
				}
			}
			// Every node routes (fat-tree switches too); only hosts are
			// destinations.
			for src := 0; src < tc.topo.Nodes(); src++ {
				for dst := 0; dst < tc.topo.Hosts(); dst++ {
					if src == dst {
						continue
					}
					for inVC := 0; inVC < fn.NumVCs(); inVC++ {
						check(topology.Node(src), topology.Node(dst), topology.Invalid, inVC)
					}
					for _, l := range topology.AllLinks(tc.topo) {
						if l.To != topology.Node(src) {
							continue
						}
						check(topology.Node(src), topology.Node(dst), l.ID, 0)
					}
				}
			}
		}
	}
}

// TestTableEscapeOfSplitFunction: the selected table for a function with a
// separate escape subfunction hands back the generator's own escape, so the
// CDG checker sees one function either way.
func TestTableEscapeOfSplitFunction(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := Select(fn, topo)
	if tab.Escape() != fn.Escape() {
		t.Fatal("table must delegate to the generator's escape subfunction")
	}
}

// TestZeroAllocCandidates asserts the hot-path contract of this package:
// once the caller's scratch slice has grown, Candidates allocates nothing —
// neither the selected tables nor the algorithmic implementations they were
// generated from.
func TestZeroAllocCandidates(t *testing.T) {
	for _, tc := range tableCases(t) {
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			tab, _ := Select(fn, tc.topo)
			nodes := tc.topo.Nodes()
			for _, impl := range []struct {
				kind string
				f    Func
			}{{"algorithmic", fn}, {"table", tab}} {
				out := make([]Candidate, 0, 64)
				sweep := func() {
					for src := 0; src < nodes; src++ {
						dst := (src + nodes/2 + 1) % nodes
						if dst == src {
							continue
						}
						out = impl.f.Candidates(topology.Node(src), topology.Node(dst), topology.Invalid, 0, out[:0])
					}
				}
				sweep() // grow the scratch once
				if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
					t.Errorf("%s/%s/%s: %.1f allocs per sweep, want 0", tc.label, name, impl.kind, allocs)
				}
			}
		}
	}
}

func benchCandidates(b *testing.B, fn Func, nodes int) {
	b.Helper()
	b.ReportAllocs()
	out := make([]Candidate, 0, 64)
	b.ResetTimer() // exclude table construction in the *Compressed variants
	for i := 0; i < b.N; i++ {
		src := i % nodes
		dst := (src + nodes/2 + 1) % nodes
		if dst == src {
			dst = (dst + 1) % nodes
		}
		out = fn.Candidates(topology.Node(src), topology.Node(dst), topology.Invalid, 0, out[:0])
	}
	_ = out
}

func BenchmarkCandidatesDuatoAlgorithmic(b *testing.B) {
	topo := topology.MustCube([]int{8, 8}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchCandidates(b, fn, topo.Nodes())
}

func BenchmarkCandidatesDORAlgorithmic(b *testing.B) {
	topo := topology.MustCube([]int{8, 8}, true)
	fn, err := New("dor", topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchCandidates(b, fn, topo.Nodes())
}
