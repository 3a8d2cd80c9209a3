package wave

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// megaTopoConfig is the 64x64 torus the mega-topology contract is pinned
// at: 4096 nodes exercises the link table's ring cells, the event queue and
// the wormhole slot arena at a size no (here, dst) routing table could
// reach. Loads are kept light — mega runs are about scale, not saturation.
func megaTopoConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{64, 64}}
	cfg.Protocol = "clrp"
	cfg.Routing = "duato"
	cfg.NumVCs = 3
	cfg.Seed = 424242
	return cfg
}

// TestRoutingTableSelection: the benchmark's hybrid_32x32 configuration
// (32x32 torus, MinCircuitFlits 32) must come up without allocating
// anything quadratic in the node count — a (here, dst) routing table at this
// size is tens of megabytes, while the ring cells the routing functions
// read take 2*32*32 cells. (The name predates the removal of the
// routing-table selection it also covered.)
func TestRoutingTableSelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology.Radix = []int{32, 32}
	cfg.MinCircuitFlits = 32
	cfg.Seed = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const allocBound = 16 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= allocBound {
		t.Errorf("New(32x32 torus) allocated %d bytes, want < %d", grew, allocBound)
	}
}

// TestMegaTopoWorkersAndOracleIdentity pins the Stats of one short 64x64
// run to the digest that the retired compressed routing table and its
// algorithmic oracle both produced, so a routing change that moves a single
// flit at mega scale fails here. (The name predates the removal of the
// worker dimension and of the oracle run it also covered.)
func TestMegaTopoWorkersAndOracleIdentity(t *testing.T) {
	w := Workload{Pattern: "uniform", Load: 0.02, FixedLength: 16}
	s, err := New(megaTopoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(w, 100, 300); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	const want = "3d0a4c9985d0277d16cacabc82251f0c267cfd1fb179fdd427c49385c229525c"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Errorf("64x64 Stats digest %s, pinned %s", got, want)
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
	if _, err := sC.ResumeLoad(); err != nil {
		t.Fatalf("ResumeLoad: %v", err)
	}
	if statsC := sC.Stats(); statsC != statsA {
		t.Errorf("restored 64x64 run diverged from uninterrupted")
	}
}
