package wave

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pcs"
	"repro/internal/snapshot"
)

// snapshotDigest is the hex SHA-256 of a complete snapshot stream. The
// tests below pin it so that any change to the byte format — a field
// added, dropped, reordered or re-widthed in any layer — fails loudly
// instead of passing a round trip that is merely self-consistent.
func snapshotDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest fails the test when the snapshot bytes differ from the
// pinned format.
func checkDigest(t *testing.T, b []byte, want string) {
	t.Helper()
	if got := snapshotDigest(b); got != want {
		t.Errorf("snapshot digest %s, pinned %s (byte format changed)", got, want)
	}
}

// matrixRow is one configuration of the checkpoint/resume matrix.
type matrixRow struct {
	name     string
	topo     TopologyConfig
	protocol string
	w        Workload
	tweak    func(*Config)
	digest   string
}

var (
	matrixTorus = TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	matrixCube  = TopologyConfig{Kind: "hypercube", Dims: 5}
)

var snapshotMatrix = []matrixRow{
	{"clrp-torus", matrixTorus, "clrp", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 48}, nil,
		"f6a62cba2f444960a83f7d4d64ffc7484b205e979c2f7c0e223a1b04f6b076ee"},
	{"carp-torus", matrixTorus, "carp", Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}, nil,
		"3af14ab4eea6ffba99a359cc0f0bab5ce5068513319d3f14394e58d74b6deecf"},
	{"wormhole-torus", matrixTorus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}, nil,
		"81896231df040d99a053745cf46b1af0d63275098eff641a39782025cdd3f72d"},
	{"pcs-torus", matrixTorus, "pcs", Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}, nil,
		"415366031fd288b5a3379c8527c2ab80a329f7382c7557c00a9573c2cd0b56df"},
	{"clrp-hypercube", matrixCube, "clrp", Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48,
		WorkingSet: 4, Reuse: 0.7, RedrawPeriod: 50}, nil,
		"965702d03e83aabc395434a61c013b60b80044ff6ecd47a8721848b7cd8a509c"},
	{"carp-hypercube", matrixCube, "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil,
		"41212898fec4776a04e36d86b353431554518ad0b17d9769c9fd3bcefb2008a3"},
	{"wormhole-hypercube", matrixCube, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil,
		"f5a4c1e08a4fea1b6063c56e53ec7b88acd250a381e958df18a4f856ac7da6d3"},
	{"pcs-hypercube", matrixCube, "pcs", Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}, nil,
		"fa810c3771bab012c661867c0d96d368fbbc6ba191e123ca4d1e96159a6912e1"},
	{"wormhole-recovery-torus", matrixTorus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 16},
		func(c *Config) {
			c.Routing = "dor-nodateline"
			c.NumVCs = 1
			c.RecoveryTimeout = 32
			c.CreditDelay = 2
		}, "8d11db755f83d70bb9d6ae95b2d0a43a92dd63f88327370887e732e7af122785"},
	{"wormhole-multimsg-torus", matrixTorus, "wormhole", Workload{Pattern: "uniform", Load: 0.3,
		BimodalShort: 2, BimodalLong: 3, BimodalPLong: 0.5},
		func(c *Config) { c.BufDepth = 8 }, "668a66f6cdddd38d2d507b3a3afcbbc16a370eb22aa8ea72a591bd63929df6d7"},
	{"clrp-churn-torus", matrixTorus, "clrp", Workload{Pattern: "hotspot", Load: 0.1, FixedLength: 32,
		WorkingSet: 4, Reuse: 0.7},
		func(c *Config) { c.CacheCapacity = 2 }, "084906e077304022c18d3c1bfe7207247cb426f8e512be2b14681e5c054311cc"},
}

const matrixWarmup, matrixMeasure, matrixCheckpointAt = 500, 2000, 1000

func (r matrixRow) config() Config {
	cfg := DefaultConfig()
	cfg.Topology = r.topo
	cfg.Protocol = r.protocol
	cfg.Seed = 12345
	// Fault at 600 repairing at 1100 and fault at 1300: both sides of the
	// cycle-1000 checkpoint, so the snapshot carries a pending repair and a
	// pending injection.
	cfg.FaultSchedule = FaultScheduleConfig{Count: 2, Start: 600, Spacing: 700, Repair: 500}
	cfg.ProbeRetryLimit = 2
	cfg.RetryBackoffCycles = 40
	if r.tweak != nil {
		r.tweak(&cfg)
	}
	return cfg
}

// checkpointed runs the row's load with a Snapshot taken at the checkpoint
// cycle and returns the run's Stats and Result with the snapshot bytes.
func (r matrixRow) checkpointed(tb testing.TB) (Stats, Result, []byte) {
	tb.Helper()
	s, err := New(r.config())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	taken := false
	s.OnInterval(matrixCheckpointAt, func(now int64) {
		if taken {
			return
		}
		taken = true
		if !s.InLoadRun() {
			tb.Error("checkpoint hook fired outside the load run")
		}
		if err := s.Snapshot(&buf); err != nil {
			tb.Errorf("Snapshot: %v", err)
		}
	})
	res, err := s.RunLoad(r.w, matrixWarmup, matrixMeasure)
	if err != nil {
		tb.Fatal(err)
	}
	if !taken {
		tb.Fatal("checkpoint hook never fired")
	}
	return s.Stats(), *res, buf.Bytes()
}

// TestSnapshotResumeMatrix is the checkpoint/resume contract: for every
// protocol on torus and hypercube, with a dynamic fault schedule straddling
// the checkpoint (one repair and one injection still pending as events) and
// the retry machinery armed, three runs must agree bit for bit:
//
//	A — uninterrupted,
//	B — same run with a mid-measurement Snapshot taken (checkpointing must
//	    be a pure observation),
//	C — a fresh process restoring B's snapshot and resuming.
//
// Stats is comparable with ==, including the per-link flit checksums, so
// equality here means every flit travelled identically. The digest column
// pins the SHA-256 of the cycle-1000 snapshot bytes.
//
// The wormhole-recovery row covers the two wormhole branches the others
// leave empty: a credit-return delay (credits in flight in the credit
// pipe) and abort-and-retry recovery on the cyclic dor-nodateline routing
// (parked slots awaiting re-injection). The wormhole-multimsg row uses
// 8-flit buffers and 2–3-flit messages, so at the checkpoint several VCs
// hold the tail of the message they are streaming with the next message's
// head queued behind it. The clrp-churn-torus row (2-entry caches under
// hotspot traffic) checkpoints with probes part-way through an MB-m search
// after a backtrack (TestSnapshotMatrixHoldsBacktrackedSearch).
func TestSnapshotResumeMatrix(t *testing.T) {
	for _, tc := range snapshotMatrix {
		t.Run(tc.name, func(t *testing.T) {
			sA, err := New(tc.config())
			if err != nil {
				t.Fatal(err)
			}
			resA, err := sA.RunLoad(tc.w, matrixWarmup, matrixMeasure)
			if err != nil {
				t.Fatal(err)
			}
			statsA := sA.Stats()

			statsB, resB, snap := tc.checkpointed(t)
			checkDigest(t, snap, tc.digest)
			if statsB != statsA {
				t.Errorf("checkpointed run diverged from uninterrupted:\n A: %+v\n B: %+v", statsA, statsB)
			}
			if resB != *resA {
				t.Errorf("checkpointed run's Result diverged:\n A: %+v\n B: %+v", *resA, resB)
			}

			sC, err := Restore(bytes.NewReader(snap))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got := sC.Now(); got != matrixCheckpointAt {
				t.Fatalf("restored clock at %d, want %d", got, matrixCheckpointAt)
			}
			if !sC.InLoadRun() {
				t.Fatal("restored simulator lost its in-progress load run")
			}
			resC, err := sC.ResumeLoad()
			if err != nil {
				t.Fatalf("ResumeLoad: %v", err)
			}
			if statsC := sC.Stats(); statsC != statsA {
				t.Errorf("restored run diverged from uninterrupted:\n A: %+v\n C: %+v", statsA, statsC)
			}
			if *resC != *resA {
				t.Errorf("restored run's Result diverged:\n A: %+v\n C: %+v", *resA, *resC)
			}
		})
	}
}

// TestSnapshotMatrixHoldsBacktrackedSearch: the clrp-churn-torus row
// (2-entry caches under hotspot traffic, the clrp_churn_16x16 benchmark
// shape) checkpoints with probes mid-search, at least one of them two or
// more hops deep after a backtrack. Its restored run therefore resumes an
// MB-m search whose per-depth state the snapshot does not carry.
func TestSnapshotMatrixHoldsBacktrackedSearch(t *testing.T) {
	i := slices.IndexFunc(snapshotMatrix, func(r matrixRow) bool { return r.name == "clrp-churn-torus" })
	_, _, snap := snapshotMatrix[i].checkpointed(t)
	s, err := Restore(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	searches := s.mgr.Fab.PCS.Searches(nil)
	if !slices.ContainsFunc(searches, func(p pcs.ProbeSearch) bool { return p.Depth >= 2 && p.Marked > p.Depth }) {
		t.Fatalf("no probe at depth >= 2 after a backtrack at the checkpoint: %+v", searches)
	}
}

// TestSnapshotIdleRoundTrip checkpoints a simulator outside any load run
// and checks the restored copy steps identically under hand-driven traffic.
func TestSnapshotIdleRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	build := func() *Simulator {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	drive := func(s *Simulator, from int64) {
		for i := 0; i < 40; i++ {
			s.Send(int(from)%s.Nodes(), (int(from)+7*i+1)%s.Nodes(), 24, false)
			if err := s.Run(25); err != nil {
				t.Fatal(err)
			}
			from++
		}
		if err := s.Drain(100_000); err != nil {
			t.Fatal(err)
		}
	}

	sA := build()
	sB := build()
	for _, s := range []*Simulator{sA, sB} {
		s.Send(0, 9, 32, false)
		s.Send(3, 12, 32, false)
		if err := s.Run(300); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sB.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	checkDigest(t, buf.Bytes(), "848bdce4145b2b4dcf785cd9878297ea8db1c8fb7fa41b845f6e7e50c69a7a20")
	sC, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if sC.Stats() != sB.Stats() {
		t.Fatalf("restored Stats differ before any further stepping:\n B: %+v\n C: %+v", sB.Stats(), sC.Stats())
	}

	drive(sA, 300)
	drive(sC, 300)
	if a, c := sA.Stats(), sC.Stats(); a != c {
		t.Errorf("restored run diverged after further traffic:\n A: %+v\n C: %+v", a, c)
	}
}

// TestSnapshotDigestRejectsCorruption flips one payload byte and expects
// Restore to refuse — either a structural decode error or the trailing
// digest check, never a silently wrong simulator.
func TestSnapshotDigestRejectsCorruption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Send(1, 14, 16, false)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x40
	if _, err := Restore(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted snapshot restored without error")
	}
}

// fuzzAllocBound caps what one Restore of a fuzzed payload may allocate.
// A seed restores an 8x8 torus or 32-node hypercube simulator in a few MB;
// a decoder that sized anything from an unchecked count would blow far past
// it.
const fuzzAllocBound = 64 << 20

// FuzzRestore treats its input as a snapshot payload, wraps it in a valid
// header and digest (without them the fuzzer would only ever exercise the
// digest check) and restores it. Restore must return an error or a
// simulator, never panic, and stay under fuzzAllocBound.
//
// The payload embeds the configuration the simulator is built from, and a
// valid configuration legitimately sizes the simulator (as a waved spec
// does). The target fuzzes the state decoder, so inputs whose configuration
// is valid JSON but not one of the seeds' configurations are skipped.
func FuzzRestore(f *testing.F) {
	var configs [][]byte
	for _, r := range snapshotMatrix {
		switch r.name {
		case "wormhole-recovery-torus", "clrp-torus", "pcs-hypercube":
		default:
			continue
		}
		_, _, snap := r.checkpointed(f)
		if r.name == "clrp-torus" {
			s, err := Restore(bytes.NewReader(snap))
			if err != nil {
				f.Fatal(err)
			}
			if s.mgr.Fab.PCS.ActiveProbes() == 0 {
				f.Fatal("clrp-torus seed has no probes in flight")
			}
		}
		payload := snap[len(snapshot.Magic)+4 : len(snap)-sha256.Size]
		cfg, _ := splitConfig(payload)
		configs = append(configs, cfg)
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if cfg, ok := splitConfig(payload); ok && json.Valid(cfg) &&
			!slices.ContainsFunc(configs, func(c []byte) bool { return bytes.Equal(c, cfg) }) {
			t.Skip("configuration differs from the seeds'")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if s, err := Restore(bytes.NewReader(stampPayload(payload))); err == nil && s == nil {
			t.Fatal("Restore returned neither a simulator nor an error")
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > fuzzAllocBound {
			t.Fatalf("Restore allocated %d bytes (bound %d)", grew, fuzzAllocBound)
		}
	})
}

// splitConfig returns the configuration JSON a payload starts with.
func splitConfig(payload []byte) ([]byte, bool) {
	if len(payload) < 4 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-4) {
		return nil, false
	}
	return payload[4 : 4+n], true
}

// stampPayload wraps a payload in a valid snapshot header and digest.
func stampPayload(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(snapshot.Magic), snapshot.Version)
	b = append(b, payload...)
	sum := sha256.Sum256(payload)
	return append(b, sum[:]...)
}
