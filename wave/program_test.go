package wave

import (
	"bytes"
	"strings"
	"testing"
)

func TestProgramBuilderRoundTrip(t *testing.T) {
	var p Program
	p.At(0).Open(0, 5)
	p.At(100).Send(0, 5, 128).Send(0, 5, 64)
	p.At(100).SendWormhole(0, 5, 4)
	p.At(500).Close(0, 5)
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"@0 open 0 5",
		"@100 send 0 5 128",
		"@100 send 0 5 4 wormhole",
		"@500 close 0 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("serialized program missing %q:\n%s", want, text)
		}
	}
}

func TestProgramOutOfOrderCyclesSorted(t *testing.T) {
	var p Program
	p.At(500).Close(0, 5)
	p.At(0).Open(0, 5)
	p.At(100).Send(0, 5, 16)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "@0 ") || !strings.HasPrefix(lines[2], "@500 ") {
		t.Fatalf("not sorted:\n%s", buf.String())
	}
}

func TestProgramNegativeCycle(t *testing.T) {
	var p Program
	p.At(-1).Open(0, 1)
	if p.Err() == nil {
		t.Fatal("negative cycle accepted")
	}
	if _, err := p.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo ignored the build error")
	}
	// Running the program's Reader reports the build error itself.
	cfg := DefaultConfig()
	cfg.Protocol = "carp"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunProgram(p.Reader(), 100); err == nil || err.Error() != p.Err().Error() {
		t.Fatalf("RunProgram = %v, want the build error %q", err, p.Err())
	}
}

func TestProgramRunsEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	cfg.Protocol = "carp"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var circ, wh int
	s.OnDelivered(func(d Delivery) {
		if d.ViaCircuit {
			circ++
		} else {
			wh++
		}
	})
	var p Program
	p.At(0).Open(2, 9)
	p.At(60).Send(2, 9, 100).Send(2, 9, 100)
	p.At(60).SendWormhole(2, 9, 2)
	p.At(800).Close(2, 9)
	if err := s.RunProgram(p.Reader(), 100_000); err != nil {
		t.Fatal(err)
	}
	if circ != 2 || wh != 1 {
		t.Fatalf("circ=%d wh=%d", circ, wh)
	}
}

func TestProgramReplayOnBaselines(t *testing.T) {
	// The same program runs on every protocol (open/close ignored outside
	// CARP) and always delivers everything.
	build := func() *Program {
		var p Program
		p.At(0).Open(1, 14)
		p.At(50).Send(1, 14, 64).Send(1, 14, 64)
		p.At(400).Close(1, 14)
		return &p
	}
	for _, proto := range []string{"wormhole", "clrp", "carp", "pcs"} {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		cfg.Protocol = proto
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		s.OnDelivered(func(Delivery) { delivered++ })
		if err := s.RunProgram(build().Reader(), 100_000); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if delivered != 2 {
			t.Fatalf("%s delivered %d of 2", proto, delivered)
		}
	}
}

func TestNeighborsAndDistance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nbs := s.Neighbors(5)
	if len(nbs) != 4 {
		t.Fatalf("torus node has %d neighbours", len(nbs))
	}
	for _, nb := range nbs {
		if s.Distance(5, nb) != 1 {
			t.Fatalf("neighbour %d at distance %d", nb, s.Distance(5, nb))
		}
	}
	if s.Distance(0, 0) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestGeneratedProgramsRun(t *testing.T) {
	mk := func() *Simulator {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		cfg.Protocol = "carp"
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("stencil", func(t *testing.T) {
		s := mk()
		delivered := 0
		s.OnDelivered(func(Delivery) { delivered++ })
		p, err := s.StencilProgram(3, 32, 300)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunProgram(p.Reader(), 1_000_000); err != nil {
			t.Fatal(err)
		}
		if delivered != 16*4*3 {
			t.Fatalf("delivered %d", delivered)
		}
	})
	t.Run("ring", func(t *testing.T) {
		s := mk()
		circ := 0
		s.OnDelivered(func(d Delivery) {
			if d.ViaCircuit {
				circ++
			}
		})
		p, err := s.RingProgram(4, 16, 120)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunProgram(p.Reader(), 1_000_000); err != nil {
			t.Fatal(err)
		}
		if circ == 0 {
			t.Fatal("ring never used circuits")
		}
	})
	t.Run("alltoall", func(t *testing.T) {
		s := mk()
		delivered := 0
		s.OnDelivered(func(Delivery) { delivered++ })
		p, err := s.AllToAllProgram(16, 400)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunProgram(p.Reader(), 2_000_000); err != nil {
			t.Fatal(err)
		}
		if delivered != 16*15 {
			t.Fatalf("delivered %d of %d", delivered, 16*15)
		}
	})
	t.Run("alltoall-bad-topology", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "mesh", Radix: []int{3, 3}}
		cfg.Protocol = "carp"
		cfg.Routing = "dor"
		cfg.NumVCs = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AllToAllProgram(8, 100); err == nil {
			t.Fatal("9-node all-to-all accepted")
		}
	})
}
