package wave

import (
	"bytes"
	"testing"
)

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
// equality here means every flit travelled identically.
func TestSnapshotResumeMatrix(t *testing.T) {
	torus := TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	hcube := TopologyConfig{Kind: "hypercube", Dims: 5}
	cases := []struct {
		name     string
		topo     TopologyConfig
		protocol string
		w        Workload
	}{
		{"clrp-torus", torus, "clrp", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 48}},
		{"carp-torus", torus, "carp", Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}},
		{"wormhole-torus", torus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}},
		{"pcs-torus", torus, "pcs", Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}},
		{"clrp-hypercube", hcube, "clrp", Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48,
			WorkingSet: 4, Reuse: 0.7, RedrawPeriod: 50}},
		{"carp-hypercube", hcube, "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}},
		{"wormhole-hypercube", hcube, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}},
		{"pcs-hypercube", hcube, "pcs", Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}},
	}
	const warmup, measure, checkpointAt = 500, 2000, 1000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = tc.topo
			cfg.Protocol = tc.protocol
			cfg.Seed = 12345
			// Fault at 600 repairing at 1100 and fault at 1300: both sides of
			// the cycle-1000 checkpoint, so the snapshot carries a pending
			// repair and a pending injection.
			cfg.FaultSchedule = FaultScheduleConfig{Count: 2, Start: 600, Spacing: 700, Repair: 500}
			cfg.ProbeRetryLimit = 2
			cfg.RetryBackoffCycles = 40

			sA, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			resA, err := sA.RunLoad(tc.w, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			statsA := sA.Stats()

			sB, err := New(cfg)
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
				if !sB.InLoadRun() {
					t.Error("checkpoint hook fired outside the load run")
				}
				if err := sB.Snapshot(&buf); err != nil {
					t.Errorf("Snapshot: %v", err)
				}
			})
			resB, err := sB.RunLoad(tc.w, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			if !taken {
				t.Fatal("checkpoint hook never fired")
			}
			if statsB := sB.Stats(); statsB != statsA {
				t.Errorf("checkpointed run diverged from uninterrupted:\n A: %+v\n B: %+v", statsA, statsB)
			}
			if *resB != *resA {
				t.Errorf("checkpointed run's Result diverged:\n A: %+v\n B: %+v", *resA, *resB)
			}

			sC, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got := sC.Now(); got != checkpointAt {
				t.Fatalf("restored clock at %d, want %d", got, checkpointAt)
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
