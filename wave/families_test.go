package wave

import "testing"

// TestTopologyFamiliesEndToEnd runs the non-cube families — a 4-ary 2-tree
// under up*/down* routing and a 16-node full mesh under VC-free routing —
// through wormhole, CLRP and CARP end to end: RunLoad must drain (a lost
// message or a wedge is an error) and deliver inside the measurement window.
func TestTopologyFamiliesEndToEnd(t *testing.T) {
	fattree := TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}
	fullmesh := TopologyConfig{Kind: "fullmesh", Radix: []int{16}}
	cases := []struct {
		name     string
		topo     TopologyConfig
		routing  string
		protocol string
		w        Workload
	}{
		{"fattree-clrp", fattree, "updown", "clrp", Workload{Pattern: "uniform", Load: 0.1, FixedLength: 48}},
		{"fattree-carp", fattree, "updown", "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}},
		{"fattree-wormhole", fattree, "updown", "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}},
		{"fullmesh-clrp", fullmesh, "vcfree", "clrp", Workload{Pattern: "uniform", Load: 0.1, FixedLength: 48}},
		{"fullmesh-carp", fullmesh, "vcfree", "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}},
		{"fullmesh-wormhole", fullmesh, "vcfree", "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = tc.topo
			cfg.Routing = tc.routing
			cfg.Protocol = tc.protocol
			cfg.Seed = 12345
			if _, res := runForStats(t, cfg, tc.w, 500, 2000); res.Delivered == 0 {
				t.Fatal("no messages delivered in the measurement window")
			}
		})
	}
}
