package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/topology"
)

// pinnedCandidateDigests holds, per topology and cube routing function, the
// SHA-256 of every candidate list the function returns for every
// (here, dst, inVC) with here != dst and a fresh injection (no incoming
// link). The engines take the first free candidate, so any change of order
// changes simulation results; the digests were taken from the algorithmic
// implementations the ring-cell lookups replaced. "duato/escape" is the
// escape subfunction of duato (the mesh or the dateline torus escape).
var pinnedCandidateDigests = map[string]string{
	"torus8x8/dor":              "69842c7f2c9ed200231e61a0161c1e14ec4aad7f235256544e20dfdf58aee021",
	"torus8x8/duato":            "1eaaae27420e3a51a698a94d0b9d7cac39836d2b56eeacf4c01f4cd7412037f7",
	"torus8x8/duato/escape":     "098861d7aa4964e4d7fa866f6c2d0a14e3b38a78a1f6d50d45227e6237b1bf5f",
	"torus8x8/dor-nodateline":   "c7e788dc6b1f4ff3b979282a8769e3c71534491eefad4e4694e496d8788b8a51",
	"mesh6x6/dor":               "4c735015605c9472767ae0025c1c61fd5d53e818edc56b5a0c1b425690e671e3",
	"mesh6x6/duato":             "f6c8c005d1f62df55472a2f404c24a3854cb41df09c2f83e49c1a9c28b1fec55",
	"mesh6x6/duato/escape":      "75fd908286451365b79dd3a4cbdcee0d52769c9cb63475f51194e990ee4059cf",
	"mesh6x6/dor-nodateline":    "4c735015605c9472767ae0025c1c61fd5d53e818edc56b5a0c1b425690e671e3",
	"mesh6x6/westfirst":         "6321590fcf31e610ed237ab4515007a423e64d0d1a2ae1fc6f9a0294e0af4ddd",
	"mesh6x6/negativefirst":     "c8e35b19ffefa78b025bd0ce46e4e3b3f440cb01de2a11c120da36e8383065b5",
	"torus5x3x4/dor":            "20b9eb1569505ab8aec3771de34adce332006760a0a5a06a6dad8d3c664beb04",
	"torus5x3x4/duato":          "e33d9e6248c678829654c7d375a2b2e768e746fe9833d9d58fcbb51623afa0d9",
	"torus5x3x4/duato/escape":   "623aa12fd1f3e5b1091aa05853442c46d590848c055bacd76800b4cc52b19a93",
	"torus5x3x4/dor-nodateline": "5aa0610ec2c5628c82a45db199e8116686f3c6b580ea50bd0a483aa44ab96c70",
	"hypercube5/dor":            "3293b1fe612edd2adb67e5e5b30cef654ffa64b992f4aff5bf57086def79e797",
	"hypercube5/duato":          "24bea16c4c9c56ccb84679ba50e465e3282b00f488a220ad3e583280e62ab2b9",
	"hypercube5/duato/escape":   "3737c55dec103e0df486185747e312428cef05bd5bbafb2f0e4b92a95efec95b",
	"hypercube5/dor-nodateline": "3293b1fe612edd2adb67e5e5b30cef654ffa64b992f4aff5bf57086def79e797",
	"hypercube5/negativefirst":  "838fd1d03fdc8b56e8f3bb3bf2869e7835aceaf8405cf1108ad0a6d7160583e4",
}

// pinnedCases lists the shapes the digests cover: an even torus, a mesh (the
// only family westfirst runs on), an odd and mixed-radix 3-D torus, and a
// 5-D hypercube.
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

// candidateDigest hashes fn's candidate list for every (here, dst, inVC).
func candidateDigest(topo topology.Topology, fn Func) string {
	h := sha256.New()
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
				buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(here))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(dst))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(inVC))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(out)))
				for _, c := range out {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Link))
					buf = binary.LittleEndian.AppendUint32(buf, uint32(c.VC))
				}
				h.Write(buf)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCandidateSequencesPinned holds every candidate sequence of the five
// cube routing functions, in order, to the pinned digests.
func TestCandidateSequencesPinned(t *testing.T) {
	seen := 0
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
				seen++
				got := candidateDigest(tc.topo, s.fn)
				if want := pinnedCandidateDigests[s.key]; got != want {
					t.Errorf("%s: candidate digest %s, pinned %s", s.key, got, want)
				}
			}
		}
	}
	if seen != len(pinnedCandidateDigests) {
		t.Errorf("checked %d digests, %d pinned", seen, len(pinnedCandidateDigests))
	}
}
