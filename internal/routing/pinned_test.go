package routing

import (
	"encoding/binary"
	"os"
	"testing"

	"repro/internal/pins"
	"repro/internal/topology"
)

// TestMain fails a run that leaves a testdata/pins.txt entry unchecked.
func TestMain(m *testing.M) { os.Exit(pins.Main(m)) }

// pinnedCases lists the shapes the candidates/ pins cover: an even torus, a
// mesh (the only family westfirst runs on), an odd and mixed-radix 3-D
// torus, and a 5-D hypercube.
func pinnedCases(t *testing.T) []tableCase {
	t.Helper()
	hc, err := topology.NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	return []tableCase{
		{label: "torus8x8", topo: topology.MustCube([]int{8, 8}, true), fns: []string{"dor", "duato", "dor-nodateline"}},
		{label: "mesh6x6", topo: topology.MustCube([]int{6, 6}, false), fns: []string{"dor", "duato", "dor-nodateline", "westfirst", "negativefirst"}},
		{label: "torus5x3x4", topo: topology.MustCube([]int{5, 3, 4}, true), fns: []string{"dor", "duato", "dor-nodateline"}},
		{label: "hypercube5", topo: hc, fns: []string{"dor", "duato", "dor-nodateline", "negativefirst"}},
	}
}

// candidateDigest hashes fn's candidate list for every (here, dst, inVC)
// with here != dst and a fresh injection (no incoming link).
func candidateDigest(topo topology.Topology, fn Func) string {
	var out []Candidate
	var buf []byte
	nodes := topo.Nodes()
	for here := 0; here < nodes; here++ {
		for dst := 0; dst < nodes; dst++ {
			if here == dst {
				continue
			}
			for inVC := 0; inVC < fn.NumVCs(); inVC++ {
				out = fn.Candidates(topology.Node(here), topology.Node(dst), topology.Invalid, inVC, out[:0])
				buf = binary.LittleEndian.AppendUint32(buf, uint32(here))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(dst))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(inVC))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(out)))
				for _, c := range out {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Link))
					buf = binary.LittleEndian.AppendUint32(buf, uint32(c.VC))
				}
			}
		}
	}
	return pins.Sum(buf)
}

// TestCandidateSequencesPinned holds every candidate sequence of the five
// cube routing functions, in order, to the candidates/ pins. The engines
// take the first free candidate, so any change of order changes simulation
// results; the pins were taken from the algorithmic implementations the
// ring-cell lookups replaced. "<fn>/escape" is the escape subfunction of
// duato (the mesh or the dateline torus escape).
func TestCandidateSequencesPinned(t *testing.T) {
	for _, tc := range pinnedCases(t) {
		for _, name := range tc.fns {
			fn, err := New(name, tc.topo, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, name, err)
			}
			subjects := []struct {
				key string
				fn  Func
			}{{tc.label + "/" + name, fn}}
			if esc := fn.Escape(); esc != fn {
				subjects = append(subjects, struct {
					key string
					fn  Func
				}{tc.label + "/" + name + "/escape", esc})
			}
			for _, s := range subjects {
				pins.Check(t, "candidates/"+s.key, candidateDigest(tc.topo, s.fn))
			}
		}
	}
}
