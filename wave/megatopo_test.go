package wave

import (
	"bytes"
	"runtime"
	"testing"
)

// megaTopoConfig is the 64x64 torus the mega-topology contract is pinned
// at: 4096 nodes exercises the compressed per-dimension routing table, the
// event queue and the wormhole slot arena at a size no (here, dst) table
// could reach. Loads are kept light — mega runs are about scale, not
// saturation.
func megaTopoConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{64, 64}}
	cfg.Protocol = "clrp"
	cfg.Routing = "duato"
	cfg.NumVCs = 3
	cfg.Seed = 424242
	return cfg
}

// TestMegaTopoCompressedTableSelected is the no-fallback acceptance gate:
// a 64x64 torus must run table-backed via the compressed representation and
// report its footprint.
func TestMegaTopoCompressedTableSelected(t *testing.T) {
	s, err := New(megaTopoConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := s.RoutingTableInfo()
	if rt.Mode != "compressed" {
		t.Fatalf("64x64 torus selected routing table %+v, want compressed", rt)
	}
	if rt.Bytes <= 0 {
		t.Fatalf("compressed table reports %d bytes", rt.Bytes)
	}
	// Bytes per node must be tiny — a (here, dst) table costs >= 4*Nodes
	// bytes per node in index alone (16 KiB/node at this size).
	if perNode := rt.Bytes / s.Nodes(); perNode > 64 {
		t.Errorf("compressed table costs %d bytes/node, want <= 64", perNode)
	}

	// disableRoutingTable is the algorithmic oracle mode and must say so.
	cfg := megaTopoConfig()
	cfg.disableRoutingTable = true
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt := o.RoutingTableInfo(); rt.Mode != "algorithmic" {
		t.Fatalf("disableRoutingTable selected %+v, want algorithmic", rt)
	}
}

// TestRoutingTableSelection pins which representation serves each family
// and what building it costs. The benchmark's hybrid_32x32 configuration
// (32x32 torus, MinCircuitFlits 32) must come up on the compressed table
// without allocating anything quadratic in the node count: a (here, dst)
// table at this size is tens of megabytes. The non-cube families run their
// closed-form functions.
func TestRoutingTableSelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology.Radix = []int{32, 32}
	cfg.MinCircuitFlits = 32
	cfg.Seed = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const allocBound = 16 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= allocBound {
		t.Errorf("New(32x32 torus) allocated %d bytes, want < %d", grew, allocBound)
	}
	if rt := s.RoutingTableInfo(); rt.Mode != "compressed" {
		t.Errorf("32x32 torus selected %+v, want compressed", rt)
	}

	for _, c := range []struct {
		topo    TopologyConfig
		routing string
	}{
		{TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}, "updown"},
		{TopologyConfig{Kind: "fullmesh", Radix: []int{16}}, "vcfree"},
	} {
		cfg := DefaultConfig()
		cfg.Topology = c.topo
		cfg.Routing = c.routing
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rt := s.RoutingTableInfo(); rt != (RoutingTableInfo{Mode: "algorithmic"}) {
			t.Errorf("%s on %s selected %+v, want algorithmic", c.routing, c.topo.Kind, rt)
		}
	}
}

// TestMegaTopoWorkersAndOracleIdentity proves the mega-topology routing
// contract in one short run: the compressed table and the algorithmic-routing
// oracle (disableRoutingTable) deliver bit-identical Stats at 64x64. Stats is
// comparable with ==, including per-link flit checksums, so equality means
// every flit moved identically. (The name predates the removal of the
// worker dimension it also covered.)
func TestMegaTopoWorkersAndOracleIdentity(t *testing.T) {
	w := Workload{Pattern: "uniform", Load: 0.02, FixedLength: 16}
	const warmup, measure = 100, 300
	run := func(disableTable bool) Stats {
		t.Helper()
		cfg := megaTopoConfig()
		cfg.disableRoutingTable = disableTable
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunLoad(w, warmup, measure); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	table := run(false)
	if oracle := run(true); oracle != table {
		t.Errorf("compressed table diverged from algorithmic oracle at 64x64:\n table  %+v\n oracle %+v", table, oracle)
	}
}

// TestMegaTopoSnapshotResume extends the PR 8 checkpoint contract beyond
// toy sizes: at 64x64 a run with a mid-measurement Snapshot and a fresh
// process restoring it must both match the uninterrupted run bit for bit —
// the wormhole slot arena, the event queue and the sparse PCS history all
// round-tripping at scale.
func TestMegaTopoSnapshotResume(t *testing.T) {
	w := Workload{Pattern: "uniform", Load: 0.02, FixedLength: 16}
	const warmup, measure, checkpointAt = 100, 300, 250

	sA, err := New(megaTopoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sA.RunLoad(w, warmup, measure); err != nil {
		t.Fatal(err)
	}
	statsA := sA.Stats()

	sB, err := New(megaTopoConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	taken := false
	sB.OnInterval(checkpointAt, func(now int64) {
		if taken {
			return
		}
		taken = true
		if err := sB.Snapshot(&buf); err != nil {
			t.Errorf("Snapshot: %v", err)
		}
	})
	if _, err := sB.RunLoad(w, warmup, measure); err != nil {
		t.Fatal(err)
	}
	if !taken {
		t.Fatal("checkpoint hook never fired")
	}
	if statsB := sB.Stats(); statsB != statsA {
		t.Errorf("checkpointed 64x64 run diverged from uninterrupted")
	}

	sC, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rt := sC.RoutingTableInfo(); rt.Mode != "compressed" {
		t.Errorf("restored 64x64 simulator selected %q routing table, want compressed", rt.Mode)
	}
	if _, err := sC.ResumeLoad(); err != nil {
		t.Fatalf("ResumeLoad: %v", err)
	}
	if statsC := sC.Stats(); statsC != statsA {
		t.Errorf("restored 64x64 run diverged from uninterrupted")
	}
}
