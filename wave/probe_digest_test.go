package wave

import (
	"testing"

	"repro/internal/pins"
)

// TestCLRPDigestsPinnedAcrossFamilies pins the Stats of short CLRP runs on
// one topology of every family (stats/families/<family>/<shape>), so a
// change to the PCS probe's output selection that moves a single pick
// anywhere fails here. Two traffic shapes per topology drive the probe the
// two ways the benchmark does: hotspot traffic with 2-entry circuit caches
// (eviction, Force waits, release flits, wormhole fallback) and a locality
// working set with 8-entry caches (long-lived circuits, cache hits). The
// benchmark runs only tori; these cover meshes, hypercubes and the two
// non-cube families, whose probes rank profitable outputs by Distance
// instead of coordinate offsets.
func TestCLRPDigestsPinnedAcrossFamilies(t *testing.T) {
	families := []struct {
		name    string
		topo    TopologyConfig
		routing string
	}{
		{"torus16x16", TopologyConfig{Kind: "torus", Radix: []int{16, 16}}, ""},
		{"mesh8x8", TopologyConfig{Kind: "mesh", Radix: []int{8, 8}}, ""},
		{"hypercube6", TopologyConfig{Kind: "hypercube", Dims: 6}, ""},
		{"fattree4x2", TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}, "updown"},
		{"fullmesh16", TopologyConfig{Kind: "fullmesh", Radix: []int{16}}, "vcfree"},
	}
	shapes := []struct {
		name  string
		cache int
		w     Workload
	}{
		{"hotspot", 2, Workload{Pattern: "hotspot", Load: 0.10, FixedLength: 32, WorkingSet: 4, Reuse: 0.7}},
		{"locality", 8, Workload{Pattern: "uniform", Load: 0.15, FixedLength: 128, WorkingSet: 4, Reuse: 0.8, WantCircuit: true}},
	}
	for _, f := range families {
		for _, sh := range shapes {
			name := f.name + "/" + sh.name
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Topology = f.topo
				if f.routing != "" {
					cfg.Routing = f.routing
				}
				cfg.CacheCapacity = sh.cache
				cfg.Seed = 7
				st, res := runForStats(t, cfg, sh.w, 500, 10000)
				if res.Delivered == 0 {
					t.Fatal("no messages delivered")
				}
				pins.Check(t, "stats/families/"+name, pins.SumJSON(t, st))
			})
		}
	}
}
