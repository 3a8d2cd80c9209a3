package routing

import (
	"testing"

	"repro/internal/topology"
)

// compressedCases enumerates topology/function combinations for the
// compressed-table equivalence tests, each checked exhaustively over every
// (here, dst) pair: 16x16 and 32x32 are the sizes the benchmark workloads
// run, the odd and mixed radices exercise the offset normalisation, and the
// hypercubes the radix-2 degenerate cells.
func compressedCases(t *testing.T) []tableCase {
	t.Helper()
	hc, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	hc6, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	return []tableCase{
		{
			label: "torus32x32",
			topo:  topology.MustCube([]int{32, 32}, true),
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "torus16x16",
			topo:  topology.MustCube([]int{16, 16}, true),
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "mesh16x16",
			topo:  topology.MustCube([]int{16, 16}, false),
			fns:   []string{"dor", "duato", "dor-nodateline", "westfirst", "negativefirst"},
		},
		{
			label: "torus8x8",
			topo:  topology.MustCube([]int{8, 8}, true),
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "mesh8x8",
			topo:  topology.MustCube([]int{8, 8}, false),
			fns:   []string{"dor", "duato", "dor-nodateline", "westfirst", "negativefirst"},
		},
		{
			label: "torus4x4",
			topo:  topology.MustCube([]int{4, 4}, true),
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "mesh3x5",
			topo:  topology.MustCube([]int{3, 5}, false),
			fns:   []string{"dor", "duato", "dor-nodateline", "westfirst", "negativefirst"},
		},
		{
			label: "torus5x3x4",
			topo:  topology.MustCube([]int{5, 3, 4}, true),
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "hypercube3",
			topo:  hc,
			fns:   []string{"dor", "duato", "dor-nodateline"},
		},
		{
			label: "hypercube6",
			topo:  hc6,
			fns:   []string{"dor", "duato", "dor-nodateline", "negativefirst"},
		},
	}
}

// TestCompressedMatchesOracle: for every (src, dst) pair — and across inVC
// and incoming-link sweeps, which the lookup must ignore — the
// per-dimension table reproduces the algorithmic oracle's candidate
// sequence element for element and in order.
func TestCompressedMatchesOracle(t *testing.T) {
	for _, tc := range compressedCases(t) {
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			comp, ok := BuildCompressed(fn, tc.topo)
			if !ok {
				t.Fatalf("%s/%s: BuildCompressed refused a k-ary n-cube", tc.label, name)
			}
			nodes := tc.topo.Nodes()
			var want, got []Candidate
			check := func(src, dst topology.Node, inLink topology.LinkID, inVC int) {
				want = fn.Candidates(src, dst, inLink, inVC, want[:0])
				got = comp.Candidates(src, dst, inLink, inVC, got[:0])
				if !sameCandidates(want, got) {
					t.Fatalf("%s/%s: src=%d dst=%d inLink=%d inVC=%d:\ncompressed %v\n    oracle %v",
						tc.label, name, src, dst, inLink, inVC, got, want)
				}
			}
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src == dst {
						continue
					}
					for inVC := 0; inVC < fn.NumVCs(); inVC++ {
						check(topology.Node(src), topology.Node(dst), topology.Invalid, inVC)
					}
				}
			}
			// Incoming-link purity on one destination per link (the full
			// sweep runs on the small shapes of TestTableMatchesOracle; here
			// it would be quadratic in links).
			for _, l := range topology.AllLinks(tc.topo) {
				src := l.To
				dst := topology.Node((int(src) + nodes/2 + 1) % nodes)
				if dst == src {
					continue
				}
				check(src, dst, l.ID, 1)
			}
		}
	}
}

// TestCompressedMatchesFlatTable covers an 8x8 torus and mesh, sizes that
// used to run on the flat (here, dst) arena: Select now yields the
// compressed table there, and that table must return the algorithmic
// oracle's candidates — which the flat arena reproduced verbatim — for every
// (src, dst, inVC) and every incoming link.
func TestCompressedMatchesFlatTable(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		topo := topology.MustCube([]int{8, 8}, wrap)
		fns := []string{"dor", "duato", "dor-nodateline"}
		if !wrap {
			fns = append(fns, "westfirst", "negativefirst")
		}
		links := topology.AllLinks(topo)
		for _, name := range fns {
			fn, err := New(name, topo, 3)
			if err != nil {
				t.Fatal(err)
			}
			tab, info := Select(fn, topo)
			if info.Mode != TableCompressed {
				t.Fatalf("%s wrap=%v: selected %v, want compressed", name, wrap, info.Mode)
			}
			var want, got []Candidate
			check := func(src, dst topology.Node, inLink topology.LinkID, inVC int) {
				want = fn.Candidates(src, dst, inLink, inVC, want[:0])
				got = tab.Candidates(src, dst, inLink, inVC, got[:0])
				if !sameCandidates(want, got) {
					t.Fatalf("%s wrap=%v: src=%d dst=%d inLink=%d inVC=%d:\ncompressed %v\n    oracle %v",
						name, wrap, src, dst, inLink, inVC, got, want)
				}
			}
			for src := 0; src < topo.Nodes(); src++ {
				for dst := 0; dst < topo.Nodes(); dst++ {
					if src == dst {
						continue
					}
					for inVC := 0; inVC < fn.NumVCs(); inVC++ {
						check(topology.Node(src), topology.Node(dst), topology.Invalid, inVC)
					}
					for _, l := range links {
						if l.To == topology.Node(src) {
							check(topology.Node(src), topology.Node(dst), l.ID, 0)
						}
					}
				}
			}
		}
	}
}

// TestCompressedMegaSample checks the mega-topology sizes an exhaustive
// sweep cannot reach in unit-test time: a deterministic 10k-pair sample on
// the 64x64 torus and mesh against the algorithmic oracle.
func TestCompressedMegaSample(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		topo := topology.MustCube([]int{64, 64}, wrap)
		fns := []string{"dor", "duato", "dor-nodateline"}
		if !wrap {
			fns = append(fns, "westfirst", "negativefirst")
		}
		for _, name := range fns {
			fn, err := New(name, topo, 3)
			if err != nil {
				t.Fatal(err)
			}
			comp, ok := BuildCompressed(fn, topo)
			if !ok {
				t.Fatalf("%s wrap=%v: BuildCompressed refused the 64x64 cube", name, wrap)
			}
			nodes := uint64(topo.Nodes())
			var want, got []Candidate
			// Deterministic LCG pair stream; fixed seed so failures reproduce.
			state := uint64(0x1234_5678_9ABC_DEF0)
			checked := 0
			for checked < 10_000 {
				state = state*6364136223846793005 + 1442695040888963407
				src := topology.Node((state >> 33) % nodes)
				state = state*6364136223846793005 + 1442695040888963407
				dst := topology.Node((state >> 33) % nodes)
				if src == dst {
					continue
				}
				want = fn.Candidates(src, dst, topology.Invalid, 0, want[:0])
				got = comp.Candidates(src, dst, topology.Invalid, 0, got[:0])
				if !sameCandidates(want, got) {
					t.Fatalf("%s wrap=%v: src=%d dst=%d:\ncompressed %v\n    oracle %v",
						name, wrap, src, dst, got, want)
				}
				checked++
			}
		}
	}
}

// TestCompressedFootprint pins the whole point of the exercise: at 64x64
// the compressed representation must cost a few bytes per node where any
// (here, dst) table costs tens of kilobytes per node.
func TestCompressedFootprint(t *testing.T) {
	topo := topology.MustCube([]int{64, 64}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := BuildCompressed(fn, topo)
	if !ok {
		t.Fatal("BuildCompressed refused the 64x64 torus")
	}
	cells, coords := comp.MemoryFootprint()
	total := cells + coords
	// Exact expectation: 2 dims * 64^2 cells * 4 B + 4096 nodes * 2 coords * 2 B.
	want := 2*64*64*sizeofDimCell + topo.Nodes()*2*2
	if total != want {
		t.Errorf("footprint = %d bytes, want %d", total, want)
	}
	// A (here, dst) table costs at least 4 index bytes per pair before any
	// candidate storage; compressed must be under 1% of even that floor.
	flatFloor := topo.Nodes() * topo.Nodes() * 4
	if total*100 >= flatFloor {
		t.Errorf("compressed %d bytes is not < 1%% of the flat index floor %d", total, flatFloor)
	}
}

// opaqueFunc hides a function's identity from the compressed builder (its
// name is not in the registry), standing in for any future function whose
// candidates are not a per-dimension product.
type opaqueFunc struct{ Func }

func (o *opaqueFunc) Name() string { return "opaque" }

// TestCompressedRefusals pins the domain boundary: unknown functions are
// refused (the caller falls back) rather than mistabulated.
func TestCompressedRefusals(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := BuildCompressed(&opaqueFunc{Func: fn}, topo); ok {
		t.Error("BuildCompressed accepted a function outside the registry")
	}
}

// TestCompressedIdentity: the compressed table reports its generator's
// identity, and escape subfunctions stay algorithmic (the CDG checker sees
// one function either way).
func TestCompressedIdentity(t *testing.T) {
	topo := topology.MustCube([]int{8, 8}, true)
	dor, err := New("dor", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := BuildCompressed(dor, topo)
	if !ok {
		t.Fatal("BuildCompressed refused")
	}
	if comp.Oracle() != dor {
		t.Error("Oracle is not the generator")
	}
	if comp.Name() != dor.Name() || comp.NumVCs() != dor.NumVCs() {
		t.Error("compressed table does not mirror the generator's identity")
	}
	if comp.Escape() != Func(comp) {
		t.Error("self-escape generator did not yield self-escape table")
	}
	duato, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	dcomp, ok := BuildCompressed(duato, topo)
	if !ok {
		t.Fatal("BuildCompressed refused duato")
	}
	if dcomp.Escape() != duato.Escape() {
		t.Error("split-escape generator must delegate Escape to the algorithmic subfunction")
	}
}

// TestWithTableGate pins the retirement of the node-count gate: whatever
// maxNodes the compatibility selector SelectTableCached is handed — zero,
// below, at or above the old DefaultTableMaxNodes — a cube function gets the
// compressed table (never TableFlat, never the bare function), and that
// table mirrors its generator's identity.
func TestWithTableGate(t *testing.T) {
	for _, side := range []int{4, 32, 64} {
		topo := topology.MustCube([]int{side, side}, true)
		fn, err := New("dor", topo, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxNodes := range []int{0, 1, topo.Nodes() - 1, DefaultTableMaxNodes} {
			tab, info := SelectTableCached(fn, topo, maxNodes)
			comp, ok := tab.(*CompressedFunc)
			if !ok || info.Mode != TableCompressed {
				t.Fatalf("%dx%d maxNodes=%d: selected %T (%v), want compressed", side, side, maxNodes, tab, info.Mode)
			}
			cells, coords := comp.MemoryFootprint()
			if info.Bytes != cells+coords {
				t.Errorf("%dx%d maxNodes=%d: info.Bytes = %d, want %d", side, side, maxNodes, info.Bytes, cells+coords)
			}
			if comp.Oracle() != fn || comp.Name() != fn.Name() || comp.NumVCs() != fn.NumVCs() {
				t.Errorf("%dx%d maxNodes=%d: table does not mirror the generator's identity", side, side, maxNodes)
			}
			if comp.Escape() != Func(comp) {
				t.Errorf("%dx%d maxNodes=%d: self-escape generator did not yield self-escape table", side, side, maxNodes)
			}
		}
	}
}

// TestZeroAllocCompressedCandidates extends the zero-allocation hot-path
// contract to the compressed lookup, including at mega scale.
func TestZeroAllocCompressedCandidates(t *testing.T) {
	shapes := []struct {
		label string
		topo  topology.Topology
		fns   []string
	}{
		{"torus8x8", topology.MustCube([]int{8, 8}, true), []string{"dor", "duato", "dor-nodateline"}},
		{"mesh8x8", topology.MustCube([]int{8, 8}, false), []string{"dor", "duato", "westfirst", "negativefirst"}},
		{"torus64x64", topology.MustCube([]int{64, 64}, true), []string{"dor", "duato"}},
	}
	for _, tc := range shapes {
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			comp, ok := BuildCompressed(fn, tc.topo)
			if !ok {
				t.Fatalf("%s/%s: BuildCompressed refused", tc.label, name)
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
					out = comp.Candidates(topology.Node(src), topology.Node(dst), topology.Invalid, 0, out[:0])
				}
			}
			sweep() // grow the scratch once
			if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
				t.Errorf("%s/%s: %.1f allocs per sweep, want 0", tc.label, name, allocs)
			}
		}
	}
}

func BenchmarkCandidatesDuatoCompressed(b *testing.B) {
	topo := topology.MustCube([]int{8, 8}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	comp, ok := BuildCompressed(fn, topo)
	if !ok {
		b.Fatal("BuildCompressed refused")
	}
	benchCandidates(b, comp, topo.Nodes())
}

func BenchmarkCandidatesDuatoCompressed64x64(b *testing.B) {
	topo := topology.MustCube([]int{64, 64}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		b.Fatal(err)
	}
	comp, ok := BuildCompressed(fn, topo)
	if !ok {
		b.Fatal("BuildCompressed refused")
	}
	benchCandidates(b, comp, topo.Nodes())
}
