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
		"torus16x16/hotspot":  "d7fc8521dbb1c998fd4ae66f2254b7781d03e4e3edf91c479648612d4ba68ffd",
		"torus16x16/locality": "91cf06917b0f78b8f132a63d87d5de9ecf2bc86ef1b4136e1e4ec9a4e8575545",
		"mesh8x8/hotspot":     "041ddcab145a2a5115422fb7799a81d5df58c77c449388ceb66c161eb2f96bf1",
		"mesh8x8/locality":    "41b8adb44b516a324ff986fee2f80d038b8a36a3bf61abb604aff7b1c06e6d80",
		"hypercube6/hotspot":  "cf1909b1e43bc4a7b951d0bd22bec40a847645f305a93e93f873a042326e6c29",
		"hypercube6/locality": "25ec5166cdc7712073094b45666b07e20ed6829ba2bdb8b41fe59907076b9b34",
		"fattree4x2/hotspot":  "f1425e866551656d4139d64d041e4994641265c789876fb58266dcae311427a1",
		"fattree4x2/locality": "1e7f5e61ed7cc3a65740606fa5a73124196157f51c2a16810b9ce6a08da2007b",
		"fullmesh16/hotspot":  "d4b44363c2a1667015355eefd0b66c47d07fe9020ec1ff8429ed04d484839b3e",
		"fullmesh16/locality": "0d239f080f723e69e0a7d692f4b6f86b90160008b116d8ef4a3c6729054feef5",
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
