package routing

import (
	"sort"
	"testing"

	"repro/internal/topology"
)

// tableCase pairs a topology with the routing functions it admits.
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

// refFunc restates a cube routing function (or duato's escape subfunction,
// name "duato/escape") in closed form, independently of the link table's
// ring cells: per-dimension offsets normalized by repeated subtraction from
// the node coordinates, the Dally-Seitz dateline class from the coordinate
// and the remaining offset, links from OutSlot, and a library stable sort
// for Duato's adaptive order.
type refFunc struct {
	g      topology.Geometry
	name   string
	numVCs int
}

// refStep is one profitable dimension of a reference decision.
type refStep struct {
	dim, off, class int
	dir             topology.Dir
	link            topology.LinkID
}

func (r refFunc) steps(here, dst topology.Node) []refStep {
	hc := r.g.Coord(here, make([]int, r.g.Dims()))
	dc := r.g.Coord(dst, make([]int, r.g.Dims()))
	var st []refStep
	for d := range hc {
		k, x, off := r.g.Radix(d), hc[d], dc[d]-hc[d]
		for r.g.Wrap() && off > k/2 {
			off -= k
		}
		for r.g.Wrap() && off < -(k-1)/2 {
			off += k
		}
		if off == 0 {
			continue
		}
		s := refStep{dim: d, off: off, class: 1, dir: topology.Plus}
		if off < 0 {
			s.dir = topology.Minus
		}
		if off > 0 && x+off >= k && x != k-1 || off < 0 && x+off < 0 && x != 0 {
			s.class = 0 // the wraparound hop still lies strictly ahead
		}
		link, ok := r.g.OutSlot(here, 2*d+int(s.dir))
		if !ok {
			panic("reference: minimal hop off the mesh edge")
		}
		s.link = link
		st = append(st, s)
	}
	return st
}

func (r refFunc) candidates(here, dst topology.Node) []Candidate {
	var out []Candidate
	add := func(link topology.LinkID, vcs ...int) {
		for _, vc := range vcs {
			out = append(out, Candidate{Link: link, VC: vc})
		}
	}
	vcRange := func(lo, step int) []int {
		var vcs []int
		for vc := lo; vc < r.numVCs; vc += step {
			vcs = append(vcs, vc)
		}
		return vcs
	}
	escapeVC := func(s refStep) int {
		if r.g.Wrap() {
			return s.class
		}
		return 0
	}
	st := r.steps(here, dst)
	if len(st) == 0 {
		return nil
	}
	switch r.name {
	case "dor-nodateline":
		add(st[0].link, vcRange(0, 1)...)
	case "dor":
		if r.g.Wrap() {
			add(st[0].link, vcRange(st[0].class, 2)...)
		} else {
			add(st[0].link, vcRange(0, 1)...)
		}
	case "duato/escape":
		add(st[0].link, escapeVC(st[0]))
	case "duato":
		adaptLo := 1
		if r.g.Wrap() {
			adaptLo = 2
		}
		sorted := append([]refStep(nil), st...)
		abs := func(v int) int { return max(v, -v) }
		sort.SliceStable(sorted, func(i, j int) bool { return abs(sorted[i].off) > abs(sorted[j].off) })
		for _, s := range sorted {
			add(s.link, vcRange(adaptLo, 1)...)
		}
		add(st[0].link, escapeVC(st[0]))
	case "westfirst", "negativefirst":
		// westfirst: any westward hop (dimension 0, Minus) goes first and
		// alone. negativefirst: every Minus hop first, then every Plus hop.
		var neg, pos []refStep
		for _, s := range st {
			if s.dir == topology.Minus {
				neg = append(neg, s)
			} else {
				pos = append(pos, s)
			}
		}
		switch {
		case r.name == "westfirst" && st[0].dim == 0 && st[0].dir == topology.Minus:
			add(st[0].link, vcRange(0, 1)...)
		case r.name == "westfirst":
			for _, s := range st {
				add(s.link, vcRange(0, 1)...)
			}
		case len(neg) > 0:
			for _, s := range neg {
				add(s.link, vcRange(0, 1)...)
			}
		default:
			for _, s := range pos {
				add(s.link, vcRange(0, 1)...)
			}
		}
	default:
		panic("reference: unknown function " + r.name)
	}
	return out
}

// refCase is one shape of the reference tests: a topology, the functions it
// admits, and how far the (src, dst) sweep goes.
type refCase struct {
	tableCase
	sample  int  // 0: every pair; else this many pseudo-random pairs
	inLinks bool // sweep every incoming link of every pair
	oneLink bool // sweep every incoming link against one destination
}

// checkReference holds every function of every case, and the escape
// subfunction of a split function too, to the closed-form reference
// refFunc: for each checked (src, dst) pair and every inVC — and every
// incoming link the case asks for — the candidate sequence must match
// element for element and in order. Order matters: the engines take the
// first free candidate, so any permutation would change simulation results.
func checkReference(t *testing.T, cases []refCase) {
	t.Helper()
	for _, tc := range cases {
		g := tc.topo.(topology.Geometry)
		nodes := tc.topo.Nodes()
		var links []topology.Link
		if tc.inLinks || tc.oneLink {
			links = topology.AllLinks(tc.topo)
		}
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			subjects := []struct {
				name string
				fn   Func
			}{{name, fn}}
			if esc := fn.Escape(); esc != fn {
				subjects = append(subjects, struct {
					name string
					fn   Func
				}{name + "/escape", esc})
			}
			for _, s := range subjects {
				ref := refFunc{g: g, name: s.name, numVCs: 3}
				var want, got []Candidate
				checkLink := func(src, dst topology.Node, l topology.Link) {
					got = s.fn.Candidates(src, dst, l.ID, 0, got[:0])
					if !sameCandidates(want, got) {
						t.Fatalf("%s/%s: src=%d dst=%d inLink=%d:\n table %v\noracle %v", tc.label, s.name, src, dst, l.ID, got, want)
					}
				}
				check := func(src, dst topology.Node) {
					want = ref.candidates(src, dst)
					for inVC := 0; inVC < s.fn.NumVCs(); inVC++ {
						got = s.fn.Candidates(src, dst, topology.Invalid, inVC, got[:0])
						if !sameCandidates(want, got) {
							t.Fatalf("%s/%s: src=%d dst=%d inVC=%d:\n table %v\noracle %v", tc.label, s.name, src, dst, inVC, got, want)
						}
					}
					if !tc.inLinks {
						return
					}
					for _, l := range links {
						if l.To == src {
							checkLink(src, dst, l)
						}
					}
				}
				if tc.sample == 0 {
					for src := 0; src < nodes; src++ {
						for dst := 0; dst < nodes; dst++ {
							if src != dst {
								check(topology.Node(src), topology.Node(dst))
							}
						}
					}
				} else {
					// Deterministic LCG pair stream; fixed seed so failures
					// reproduce.
					state := uint64(0x1234_5678_9ABC_DEF0)
					for checked := 0; checked < tc.sample; {
						state = state*6364136223846793005 + 1442695040888963407
						src := topology.Node((state >> 33) % uint64(nodes))
						state = state*6364136223846793005 + 1442695040888963407
						dst := topology.Node((state >> 33) % uint64(nodes))
						if src != dst {
							check(src, dst)
							checked++
						}
					}
				}
				if !tc.oneLink {
					continue
				}
				// Incoming-link purity on one destination per link: the
				// full sweep would be quadratic in links.
				for _, l := range links {
					src := l.To
					dst := topology.Node((int(src) + nodes/2 + 1) % nodes)
					if dst != src {
						want = ref.candidates(src, dst)
						checkLink(src, dst, l)
					}
				}
			}
		}
	}
}

var (
	meshFns  = []string{"dor", "duato", "dor-nodateline", "westfirst", "negativefirst"}
	torusFns = []string{"dor", "duato", "dor-nodateline"}
)

// TestTableMatchesOracle holds every cube routing function, which reads its
// decisions from the link table's ring cells, to the closed-form reference
// on the smallest shapes of every kind: every (src, dst) pair, every inVC
// and every incoming link.
func TestTableMatchesOracle(t *testing.T) {
	hc3, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	checkReference(t, []refCase{
		{tableCase: tableCase{"torus4x4", topology.MustCube([]int{4, 4}, true), torusFns}, inLinks: true},
		{tableCase: tableCase{"mesh3x3", topology.MustCube([]int{3, 3}, false), meshFns}, inLinks: true},
		{tableCase: tableCase{"hypercube3", hc3, torusFns}, inLinks: true},
	})
}

// TestCompressedMatchesOracle: the per-dimension (compressed) ring cells the
// cube functions read reproduce the closed-form reference for every
// (src, dst) pair and inVC, and ignore the incoming link. 16x16 and 32x32
// are the sizes the benchmark workloads run, the odd and mixed radices
// exercise the offset normalisation, and the hypercubes the radix-2
// degenerate cells.
func TestCompressedMatchesOracle(t *testing.T) {
	hc3, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	hc6, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	checkReference(t, []refCase{
		{tableCase: tableCase{"torus32x32", topology.MustCube([]int{32, 32}, true), torusFns}, oneLink: true},
		{tableCase: tableCase{"torus16x16", topology.MustCube([]int{16, 16}, true), torusFns}, oneLink: true},
		{tableCase: tableCase{"mesh16x16", topology.MustCube([]int{16, 16}, false), meshFns}, oneLink: true},
		{tableCase: tableCase{"torus8x8", topology.MustCube([]int{8, 8}, true), torusFns}, oneLink: true},
		{tableCase: tableCase{"mesh8x8", topology.MustCube([]int{8, 8}, false), meshFns}, oneLink: true},
		{tableCase: tableCase{"torus4x4", topology.MustCube([]int{4, 4}, true), torusFns}, oneLink: true},
		{tableCase: tableCase{"mesh3x5", topology.MustCube([]int{3, 5}, false), meshFns}, oneLink: true},
		{tableCase: tableCase{"torus5x3x4", topology.MustCube([]int{5, 3, 4}, true), torusFns}, oneLink: true},
		{tableCase: tableCase{"hypercube3", hc3, torusFns}, oneLink: true},
		{tableCase: tableCase{"hypercube6", hc6, []string{"dor", "duato", "dor-nodateline", "negativefirst"}}, oneLink: true},
	})
}

// TestCompressedMatchesFlatTable covers the 8x8 torus and mesh, the sizes a
// flat (src, dst) table once served, exhaustively: every (src, dst) pair,
// every inVC and every incoming link must give the reference's candidates.
func TestCompressedMatchesFlatTable(t *testing.T) {
	checkReference(t, []refCase{
		{tableCase: tableCase{"torus8x8", topology.MustCube([]int{8, 8}, true), torusFns}, inLinks: true},
		{tableCase: tableCase{"mesh8x8", topology.MustCube([]int{8, 8}, false), meshFns}, inLinks: true},
	})
}

// TestCompressedMegaSample checks the mega-topology sizes an exhaustive
// sweep cannot reach in unit-test time: a deterministic 10k-pair sample on
// the 64x64 torus and mesh against the reference.
func TestCompressedMegaSample(t *testing.T) {
	checkReference(t, []refCase{
		{tableCase: tableCase{"torus64x64", topology.MustCube([]int{64, 64}, true), torusFns}, sample: 10_000},
		{tableCase: tableCase{"mesh64x64", topology.MustCube([]int{64, 64}, false), meshFns}, sample: 10_000},
	})
}

// TestTableEscapeOfSplitFunction: duato's escape subfunction — the one the
// CDG checker proves acyclic — is its own escape, routes only on the escape
// channels (VC 0 on meshes, the dateline classes 0 and 1 on tori), and is
// the last candidate duato offers, on every pair of a torus and a mesh.
func TestTableEscapeOfSplitFunction(t *testing.T) {
	for _, topo := range []topology.Topology{torus44(), topology.MustCube([]int{5, 3, 4}, true), topology.MustCube([]int{3, 5}, false)} {
		fn, err := New("duato", topo, 3)
		if err != nil {
			t.Fatal(err)
		}
		esc := fn.Escape()
		if esc == fn || esc.Escape() != esc {
			t.Fatalf("%s: duato escape %s is not a separate self-escape function", topo.Name(), esc.Name())
		}
		escVCs := 1
		if topo.Links().Wrap {
			escVCs = 2
		}
		var all, e []Candidate
		for src := 0; src < topo.Nodes(); src++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				if src == dst {
					continue
				}
				all = fn.Candidates(topology.Node(src), topology.Node(dst), topology.Invalid, 0, all[:0])
				e = esc.Candidates(topology.Node(src), topology.Node(dst), topology.Invalid, 0, e[:0])
				if len(e) != 1 || e[0].VC >= escVCs || len(all) == 0 || all[len(all)-1] != e[0] {
					t.Fatalf("%s %d->%d: duato %v, escape %v", topo.Name(), src, dst, all, e)
				}
			}
		}
	}
}

// checkZeroAlloc asserts the hot-path contract of this package: once the
// caller's scratch slice has grown, Candidates allocates nothing.
func checkZeroAlloc(t *testing.T, cases []tableCase) {
	t.Helper()
	for _, tc := range cases {
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			nodes := tc.topo.Nodes()
			out := make([]Candidate, 0, 64)
			sweep := func() {
				step := nodes/257 + 1
				for src := 0; src < nodes; src += step {
					dst := (src + nodes/2 + 1) % nodes
					if dst == src {
						continue
					}
					out = fn.Candidates(topology.Node(src), topology.Node(dst), topology.Invalid, 0, out[:0])
				}
			}
			sweep() // grow the scratch once
			if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
				t.Errorf("%s/%s: %.1f allocs per sweep, want 0", tc.label, name, allocs)
			}
		}
	}
}

// TestZeroAllocCandidates: no routing function of any family allocates on
// the hot path.
func TestZeroAllocCandidates(t *testing.T) {
	checkZeroAlloc(t, tableCases(t))
}

// TestZeroAllocCompressedCandidates extends the zero-allocation contract to
// the cube functions' per-dimension (compressed) cell lookups on larger
// shapes, mega scale included.
func TestZeroAllocCompressedCandidates(t *testing.T) {
	checkZeroAlloc(t, []tableCase{
		{"torus8x8", topology.MustCube([]int{8, 8}, true), torusFns},
		{"mesh8x8", topology.MustCube([]int{8, 8}, false), []string{"dor", "duato", "westfirst", "negativefirst"}},
		{"torus64x64", topology.MustCube([]int{64, 64}, true), []string{"dor", "duato"}},
	})
}

// TestWithTableGate: whatever maxNodes the deprecated SelectTableCached is
// handed — zero, below, at or above DefaultTableMaxNodes — it returns the
// cube function itself and an empty TableInfo; no table is built.
func TestWithTableGate(t *testing.T) {
	for _, side := range []int{4, 32, 64} {
		topo := topology.MustCube([]int{side, side}, true)
		fn, err := New("dor", topo, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxNodes := range []int{0, 1, topo.Nodes() - 1, DefaultTableMaxNodes} {
			if got, info := SelectTableCached(fn, topo, maxNodes); got != fn || info != (TableInfo{}) {
				t.Errorf("%dx%d maxNodes=%d: SelectTableCached = %T, %+v; want the function itself", side, side, maxNodes, got, info)
			}
		}
	}
}

// TestCompressedRefusals: the deprecated BuildCompressed builds nothing for
// any function on any family, so the benchmark's compressed lookup kernel
// reads 0.
func TestCompressedRefusals(t *testing.T) {
	for _, tc := range tableCases(t) {
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			if got, ok := BuildCompressed(fn, tc.topo); ok || got != nil {
				t.Errorf("%s/%s: BuildCompressed = %T, %v; want nothing", tc.label, name, got, ok)
			}
		}
	}
}

func benchCandidates(b *testing.B, fn Func, nodes int) {
	b.Helper()
	b.ReportAllocs()
	out := make([]Candidate, 0, 64)
	b.ResetTimer()
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

func benchDuato(b *testing.B, radix int) {
	topo := topology.MustCube([]int{radix, radix}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchCandidates(b, fn, topo.Nodes())
}

func BenchmarkCandidatesDuato(b *testing.B)      { benchDuato(b, 8) }
func BenchmarkCandidatesDuato64x64(b *testing.B) { benchDuato(b, 64) }

func BenchmarkCandidatesDOR(b *testing.B) {
	topo := topology.MustCube([]int{8, 8}, true)
	fn, err := New("dor", topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchCandidates(b, fn, topo.Nodes())
}
