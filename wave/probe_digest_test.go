package wave

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestCLRPDigestsPinnedAcrossFamilies pins the Stats SHA-256 of short CLRP
// runs on one topology of every family, so a change to the PCS probe's
// output selection that moves a single pick anywhere fails here. Two traffic
// shapes per topology drive the probe the two ways the benchmark does:
// hotspot traffic with 2-entry circuit caches (eviction, Force waits,
// release flits, wormhole fallback) and a locality working set with 8-entry
// caches (long-lived circuits, cache hits). The benchmark runs only tori;
// these cover meshes, hypercubes and the two non-cube families, whose
// probes rank profitable outputs by Distance instead of coordinate offsets.
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
	want := map[string]string{
		"torus16x16/hotspot":  "757629974dd007094ef98389583d719b9113be1e3a1e5d47bb82064f6e97d6aa",
		"torus16x16/locality": "5c6c8df07a568a7a8d4df75398d9b11375ee93cf7d60e3162e373970a605249b",
		"mesh8x8/hotspot":     "3abd726cd7bea1b694d3bb23c80f6dfd4cd256a5339bedf5fce1c9ed4a34e0a6",
		"mesh8x8/locality":    "523b6dcbcaea38f9903fdb0af9ff7d9320fc73492df0ea3098cc8f7fa2739e40",
		"hypercube6/hotspot":  "74013a51567462787b17811a929f24707ed4d7bf27d65bcdbe925d03900b4d32",
		"hypercube6/locality": "1fb1248198e49df40ab72b65704b7784885b372bfc2d63e360f6e415928ac696",
		"fattree4x2/hotspot":  "eebdc38d83e7dd8f1a8217ab6191e1e6fd0cf82413bcf8bd7b3a3c2c4807b6b5",
		"fattree4x2/locality": "21b30c3841b39650959b18c763ce5ed117226d9b45117de91b409e90799558cc",
		"fullmesh16/hotspot":  "968e9ae443c571823514c016c1bb287f180fbdc8f09d41d2936d2b3f9c2f5d18",
		"fullmesh16/locality": "568f12c9fb0d2991711a0470a409596fd6d5d4465668fcfffc4414bb61dd2903",
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
				raw, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want[name] {
					t.Errorf("Stats digest %s, pinned %s", got, want[name])
				}
			})
		}
	}
}
