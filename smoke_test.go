// Package repro_test's smoke test is the repository's front door: one small
// end-to-end pass over every major subsystem — all four protocols, a CARP
// program, a fault run, closed-loop traffic and the static deadlock checker —
// in a few seconds. If this passes, the stack is wired together correctly;
// the per-package suites cover depth.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/topology"
	"repro/internal/verify"
	"repro/wave"
)

func TestSmoke(t *testing.T) {
	base := func(protocol string) wave.Config {
		cfg := wave.DefaultConfig()
		cfg.Topology = wave.TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		cfg.Protocol = protocol
		return cfg
	}

	t.Run("protocols", func(t *testing.T) {
		for _, proto := range []string{"wormhole", "clrp", "carp", "pcs"} {
			s, err := wave.New(base(proto))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunLoad(wave.Workload{
				Pattern: "uniform", Load: 0.05, FixedLength: 32,
				WorkingSet: 2, Reuse: 0.8, WantCircuit: true,
			}, 300, 2000)
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			if res.Delivered == 0 {
				t.Fatalf("%s delivered nothing", proto)
			}
		}
	})

	t.Run("carp-program", func(t *testing.T) {
		s, err := wave.New(base("carp"))
		if err != nil {
			t.Fatal(err)
		}
		var p wave.Program
		p.At(0).Open(0, 5)
		p.At(40).Send(0, 5, 64)
		p.At(300).Close(0, 5)
		if err := s.RunProgram(p.Reader(), 100_000); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("faults", func(t *testing.T) {
		s, err := wave.New(base("clrp"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InjectFaults(32, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunLoad(wave.Workload{
			Pattern: "uniform", Load: 0.05, FixedLength: 32, WantCircuit: true,
		}, 300, 2000); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("closed-loop", func(t *testing.T) {
		s, err := wave.New(base("clrp"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunClosedLoop(wave.ClosedWorkload{
			Pattern: "near", ReqFlits: 4, ReplyFlits: 16,
			Outstanding: 2, Requests: 5, WantCircuit: true,
		}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != int64(5*s.Nodes()) {
			t.Fatalf("closed loop completed %d", res.Completed)
		}
	})

	t.Run("static-deadlock-check", func(t *testing.T) {
		topo := topology.MustCube([]int{4, 4}, true)
		cert, err := verify.Certify(verify.Spec{Topo: topo, Routing: "duato", NumVCs: 3,
			Protocol: protocol.Wormhole})
		if err != nil {
			t.Fatal(err)
		}
		if !cert.Certified || cert.Deadlock.Method != "escape" {
			t.Fatalf("duato: %s (deadlock method %q)", cert.Failure(), cert.Deadlock.Method)
		}
		bad, err := verify.Certify(verify.Spec{Topo: topo, Routing: "dor-nodateline", NumVCs: 1,
			Protocol: protocol.Wormhole})
		if err != nil {
			t.Fatal(err)
		}
		if bad.Certified {
			t.Fatal("cyclic function passed verification")
		} else if !strings.Contains(bad.Failure(), "cycle") {
			t.Fatalf("unexpected failure: %s", bad.Failure())
		}
	})
}
