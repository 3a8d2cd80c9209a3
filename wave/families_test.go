package wave

import "testing"

// TestTopologyFamiliesEndToEnd runs the non-cube families — a 4-ary 2-tree
// under up*/down* routing and a 16-node full mesh under VC-free routing —
// through wormhole, CLRP and CARP end to end: RunLoad must drain (a lost
// message or a wedge is an error) and deliver inside the measurement window.
// The closed-loop cases must complete every host's round trips.
func TestTopologyFamiliesEndToEnd(t *testing.T) {
	fattree := TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}
	fullmesh := TopologyConfig{Kind: "fullmesh", Radix: []int{16}}
	closedFamily := ClosedWorkload{Pattern: "uniform", ReqFlits: 4, ReplyFlits: 32,
		Outstanding: 2, Requests: 5, WantCircuit: true}
	cases := []struct {
		name     string
		topo     TopologyConfig
		routing  string
		protocol string
		w        Workload
		// closed, when set, runs the closed loop instead of w: every host
		// issues requests, so it wedges if a switch-only vertex does too.
		closed *ClosedWorkload
	}{
		{"fattree-clrp", fattree, "updown", "clrp", Workload{Pattern: "uniform", Load: 0.1, FixedLength: 48}, nil},
		{"fattree-carp", fattree, "updown", "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil},
		{"fattree-wormhole", fattree, "updown", "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil},
		{"fattree-wormhole-closed", fattree, "updown", "wormhole", Workload{}, &closedFamily},
		{"fattree-clrp-closed", fattree, "updown", "clrp", Workload{}, &closedFamily},
		{"fullmesh-clrp", fullmesh, "vcfree", "clrp", Workload{Pattern: "uniform", Load: 0.1, FixedLength: 48}, nil},
		{"fullmesh-carp", fullmesh, "vcfree", "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil},
		{"fullmesh-wormhole", fullmesh, "vcfree", "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = tc.topo
			cfg.Routing = tc.routing
			cfg.Protocol = tc.protocol
			cfg.Seed = 12345
			if tc.closed != nil {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.RunClosedLoop(*tc.closed, 100_000)
				if err != nil {
					t.Fatal(err)
				}
				if want := int64(tc.closed.Requests * s.Hosts()); res.Completed != want {
					t.Fatalf("completed %d round trips, want %d", res.Completed, want)
				}
				return
			}
			if _, res := runForStats(t, cfg, tc.w, 500, 2000); res.Delivered == 0 {
				t.Fatal("no messages delivered in the measurement window")
			}
		})
	}
}
