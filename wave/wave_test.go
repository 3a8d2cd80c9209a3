package wave

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 64 {
		t.Fatalf("nodes = %d", s.Nodes())
	}
}

// TestParseTopology: -radix parses the same way for every kind that has
// one, a dims flag lands only where the kind reads it, and Build is what
// checks the sizes.
func TestParseTopology(t *testing.T) {
	for _, c := range []struct {
		kind, radix string
		dims        int
		want        TopologyConfig
	}{
		{"torus", "8x8", 6, TopologyConfig{Kind: "torus", Radix: []int{8, 8}}},
		{"mesh", "4x4x4", 6, TopologyConfig{Kind: "mesh", Radix: []int{4, 4, 4}}},
		{"hypercube", "8x8", 5, TopologyConfig{Kind: "hypercube", Dims: 5}},
		{"fattree", "4", 2, TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}},
		{"fullmesh", "16", 2, TopologyConfig{Kind: "fullmesh", Radix: []int{16}}},
	} {
		tc, err := ParseTopology(c.kind, c.radix, c.dims)
		if err != nil || !reflect.DeepEqual(tc, c.want) {
			t.Fatalf("ParseTopology(%q, %q, %d) = %+v, %v; want %+v", c.kind, c.radix, c.dims, tc, err, c.want)
		}
		if _, err := tc.Build(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
	if _, err := ParseTopology("torus", "8xq", 0); err == nil {
		t.Fatal("bad radix accepted")
	}
	for _, bad := range [][2]string{{"fattree", "4x4"}, {"fullmesh", "4x4"}, {"ring", "8"}} {
		tc, err := ParseTopology(bad[0], bad[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.Build(); err == nil {
			t.Fatalf("%+v built", tc)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Topology.Kind = "ring"
	if _, err := New(bad); err == nil {
		t.Fatal("bad topology accepted")
	}
	bad = DefaultConfig()
	bad.Protocol = "telepathy"
	if _, err := New(bad); err == nil {
		t.Fatal("bad protocol accepted")
	}
	bad = DefaultConfig()
	bad.Routing = "nope"
	if _, err := New(bad); err == nil {
		t.Fatal("bad routing accepted")
	}
	bad = DefaultConfig()
	bad.Topology = TopologyConfig{Kind: "hypercube", Dims: 4}
	if s, err := New(bad); err != nil || s.Nodes() != 16 {
		t.Fatalf("hypercube config: %v", err)
	}
}

func TestSendAndDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivery
	s.OnDelivered(func(d Delivery) { got = append(got, d) })
	id := s.Send(0, 10, 64, true)
	if s.InFlight() != 1 {
		t.Fatal("InFlight != 1")
	}
	if err := s.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != id || !got[0].ViaCircuit {
		t.Fatalf("delivery: %+v", got)
	}
	if got[0].Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestRunLoadAllProtocols(t *testing.T) {
	for _, proto := range []string{"wormhole", "clrp", "carp", "pcs"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
			cfg.Protocol = proto
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunLoad(Workload{
				Pattern: "uniform", Load: 0.05, FixedLength: 16,
				WorkingSet: 3, Reuse: 0.8, WantCircuit: true,
			}, 1000, 5000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered == 0 {
				t.Fatal("no messages measured")
			}
			if res.AvgLatency <= 0 || res.Throughput <= 0 {
				t.Fatalf("degenerate result: %+v", res)
			}
			switch proto {
			case "wormhole":
				if res.CircuitFraction != 0 {
					t.Fatal("wormhole used circuits")
				}
			case "clrp", "pcs":
				if res.CircuitFraction == 0 {
					t.Fatalf("%s never used circuits", proto)
				}
			}
			if s := res.String(); !strings.Contains(s, proto) {
				t.Fatalf("result string: %q", s)
			}
		})
	}
}

func TestRunLoadValidation(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(Workload{Pattern: "zipf", Load: 0.1, FixedLength: 8}, 10, 10); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := s.RunLoad(Workload{Pattern: "uniform", Load: 0.1}, 10, 10); err == nil {
		t.Fatal("missing length dist accepted")
	}
	if _, err := s.RunLoad(Workload{Pattern: "uniform", Load: 0.1, FixedLength: 8, WorkingSet: 2, Reuse: 2}, 10, 10); err == nil {
		t.Fatal("bad reuse accepted")
	}
}

// TestWorkloadValidate: a length mix no message can be drawn from used to
// reach the engines — a zero-flit short message panicked in the protocol
// layer, a NaN BimodalPLong made the message rate NaN, and a
// BimodalPLong of 1.5 ran as if it were 1. RunLoad must refuse each with an
// error naming the field, before any cycle runs.
func TestWorkloadValidate(t *testing.T) {
	bimodal := Workload{Pattern: "uniform", Load: 0.1, BimodalShort: 4, BimodalLong: 8, BimodalPLong: 0.5}
	for _, c := range []struct {
		field  string
		mutate func(*Workload)
	}{
		{"BimodalShort", func(w *Workload) { w.BimodalShort = 0 }},
		{"BimodalLong", func(w *Workload) { w.BimodalLong = -8 }},
		{"BimodalPLong", func(w *Workload) { w.BimodalPLong = math.NaN() }},
		{"BimodalPLong", func(w *Workload) { w.BimodalPLong = 1.5 }},
		{"BimodalPLong", func(w *Workload) { w.BimodalPLong = -0.1 }},
		{"FixedLength", func(w *Workload) { w.FixedLength = -1 }},
		{"WorkingSet", func(w *Workload) { w.WorkingSet = -3 }},
		{"RedrawPeriod", func(w *Workload) { w.WorkingSet, w.RedrawPeriod = 4, -1 }},
	} {
		w := bimodal
		c.mutate(&w)
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", w, err, c.field)
		}
		s, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunLoad(w, 10, 10); err == nil || s.Now() != 0 {
			t.Errorf("%+v: RunLoad = %v after %d cycles, want a refusal at cycle 0", w, err, s.Now())
		}
	}
	// Fields a fixed length overrides are not checked.
	if err := (Workload{Pattern: "uniform", Load: 0.1, FixedLength: 8, BimodalPLong: 7}).Validate(); err != nil {
		t.Errorf("fixed-length workload refused: %v", err)
	}
	if err := bimodal.Validate(); err != nil {
		t.Errorf("valid bimodal workload refused: %v", err)
	}
}

// TestClosedWorkloadValidate: every field a closed loop cannot run with is
// refused by name, before the first cycle.
func TestClosedWorkloadValidate(t *testing.T) {
	ok := ClosedWorkload{Pattern: "uniform", ReqFlits: 4, ReplyFlits: 8, Outstanding: 1, Requests: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid closed workload refused: %v", err)
	}
	for _, c := range []struct {
		field  string
		mutate func(*ClosedWorkload)
	}{
		{"request/reply sizes", func(w *ClosedWorkload) { w.ReqFlits = 0 }},
		{"request/reply sizes", func(w *ClosedWorkload) { w.ReplyFlits = -1 }},
		{"Outstanding", func(w *ClosedWorkload) { w.Outstanding = 0 }},
		{"Requests", func(w *ClosedWorkload) { w.Requests = 0 }},
		{"ThinkCycles", func(w *ClosedWorkload) { w.ThinkCycles = -1 }},
		{"WorkingSet", func(w *ClosedWorkload) { w.WorkingSet = -3 }},
		{"RedrawPeriod", func(w *ClosedWorkload) { w.WorkingSet, w.RedrawPeriod = 4, -1 }},
	} {
		w := ok
		c.mutate(&w)
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", w, err, c.field)
		}
		s, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunClosedLoop(w, 1000); err == nil || s.Now() != 0 {
			t.Errorf("%+v: RunClosedLoop = %v after %d cycles, want a refusal at cycle 0", w, err, s.Now())
		}
	}
}

// TestRestoreRefusesInvalidWorkload: a load run restored from a snapshot
// resumes a workload that never went through RunLoad, so Restore validates
// it too instead of handing ResumeLoad a mix that panics mid-run.
func TestRestoreRefusesInvalidWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.OnInterval(50, func(int64) {
		if buf.Len() == 0 {
			s.load.w.BimodalShort = 0 // what a hand-edited snapshot could carry
			if err := s.Snapshot(&buf); err != nil {
				t.Errorf("Snapshot: %v", err)
			}
		}
	})
	if _, err := s.RunLoad(Workload{Pattern: "uniform", Load: 0.05, BimodalShort: 4, BimodalLong: 16, BimodalPLong: 0.5}, 20, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&buf); err == nil || !strings.Contains(err.Error(), "BimodalShort") {
		t.Fatalf("Restore = %v, want an error naming BimodalShort", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	sig := func() string {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunLoad(Workload{Pattern: "uniform", Load: 0.1, FixedLength: 32, WantCircuit: true}, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return res.String() + res.Workload.Pattern
	}
	if a, b := sig(), sig(); a != b {
		t.Fatalf("runs differ:\n%s\n%s", a, b)
	}
}

func TestBimodalWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunLoad(Workload{
		Pattern: "uniform", Load: 0.05,
		BimodalShort: 4, BimodalLong: 128, BimodalPLong: 0.2,
		WantCircuit: true,
	}, 500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries")
	}
}

func TestCARPTraceProgram(t *testing.T) {
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
	prog := `
# open, stream three long messages, one short via wormhole, close
@0 open 0 10
@50 send 0 10 128
@51 send 0 10 128
@52 send 0 10 4 wormhole
@53 send 0 10 128
@400 close 0 10
`
	if err := s.RunProgram(strings.NewReader(prog), 100_000); err != nil {
		t.Fatal(err)
	}
	if circ != 3 || wh != 1 {
		t.Fatalf("circ=%d wh=%d", circ, wh)
	}
}

func TestRunProgramRejectsBadTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "carp"
	s, _ := New(cfg)
	if err := s.RunProgram(strings.NewReader("@0 open 0 999"), 100); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := s.RunProgram(strings.NewReader("@0 warp 0 1"), 100); err == nil {
		t.Fatal("bad op accepted")
	}
	// On a fat tree nodes 16.. are switches: no route joins two of them, so
	// a send between them must be refused up front rather than wedge.
	cfg.Topology = TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}
	cfg.Routing = "updown"
	ft, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = ft.RunProgram(strings.NewReader("@0 send 16 17 8"), 100_000)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("switch-to-switch send not refused by validation: %v", err)
	}
}

func TestInjectFaultsStillDelivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFaults(40, 7); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunLoad(Workload{Pattern: "uniform", Load: 0.05, FixedLength: 32, WantCircuit: true}, 500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("faulty network delivered nothing")
	}
	if err := s.InjectFaults(1<<20, 7); err == nil {
		t.Fatal("oversized fault plan accepted")
	}
}

func TestCacheStatsAndProbeCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(Workload{
		Pattern: "uniform", Load: 0.1, FixedLength: 32,
		WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
	}, 500, 5000); err != nil {
		t.Fatal(err)
	}
	cs := s.CacheStats()
	if cs.Hits == 0 || cs.HitRate() <= 0 {
		t.Fatalf("cache stats: %+v", cs)
	}
	pc := s.ProbeCounters()
	if pc.Launched == 0 || pc.Succeeded == 0 {
		t.Fatalf("probe counters: %+v", pc)
	}
}

func TestOpenAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	cfg.Protocol = "carp"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenAll("uniform"); err == nil {
		t.Fatal("OpenAll accepted a random pattern")
	}
	if err := s.OpenAll("transpose"); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunLoad(Workload{Pattern: "transpose", Load: 0.05, FixedLength: 64, WantCircuit: true}, 500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CircuitFraction == 0 {
		t.Fatal("CARP with opened circuits used none")
	}
}

func TestLinkLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLoad(Workload{
		Pattern: "uniform", Load: 0.08, FixedLength: 32,
		WorkingSet: 3, Reuse: 0.7, WantCircuit: true,
	}, 500, 3000); err != nil {
		t.Fatal(err)
	}
	loads := s.LinkLoads()
	if len(loads) != 64 { // 4x4 torus: every slot exists
		t.Fatalf("link count = %d", len(loads))
	}
	var wv int64
	for _, l := range loads {
		wv += l.WaveFlits
		if l.From == l.To {
			t.Fatalf("degenerate link: %+v", l)
		}
	}
	if wv == 0 {
		t.Fatal("no wave link traffic recorded")
	}

	// Wormhole-side accounting, measured on a wormhole-only run.
	cfg.Protocol = "wormhole"
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunLoad(Workload{Pattern: "uniform", Load: 0.08, FixedLength: 32}, 500, 3000); err != nil {
		t.Fatal(err)
	}
	var wh int64
	for _, l := range s2.LinkLoads() {
		wh += l.WormholeFlits
	}
	if wh == 0 {
		t.Fatal("no wormhole link traffic recorded")
	}
}

func TestAvgCircuitWaitReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunLoad(Workload{
		Pattern: "uniform", Load: 0.1, FixedLength: 32,
		WorkingSet: 2, Reuse: 0.8, WantCircuit: true,
	}, 500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgCircuitWait <= 0 {
		t.Fatalf("AvgCircuitWait = %g, want > 0 (setup + queueing)", res.AvgCircuitWait)
	}
	if res.AvgCircuitWait >= res.AvgCircuitLatency {
		t.Fatalf("wait %g should be below total circuit latency %g", res.AvgCircuitWait, res.AvgCircuitLatency)
	}
}

func TestWindowConfigFlows(t *testing.T) {
	run := func(window int) float64 {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		cfg.WindowFlits = window
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunLoad(Workload{
			Pattern: "uniform", Load: 0.03, FixedLength: 128,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency
	}
	deep, tiny := run(0), run(4)
	if tiny <= deep {
		t.Fatalf("tiny window (%.1f) should be slower than deep buffers (%.1f)", tiny, deep)
	}
}

// TestHeadlineClaim reproduces the paper's core performance statement at API
// level: with long messages, wave switching (CLRP, k=1 full-width circuits)
// beats wormhole substantially even without reuse, and loses for short
// messages without reuse.
func TestHeadlineClaim(t *testing.T) {
	run := func(proto string, msgLen int, reuse float64) float64 {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		cfg.Protocol = proto
		cfg.NumSwitches = 1
		cfg.MaxMisroutes = 0
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := Workload{Pattern: "uniform", Load: 0.02, FixedLength: msgLen, WantCircuit: true}
		if reuse > 0 {
			w.WorkingSet = 2
			w.Reuse = reuse
		}
		res, err := s.RunLoad(w, 1000, 8000)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency
	}
	longWH := run("wormhole", 256, 0)
	longCL := run("clrp", 256, 0.9)
	if longCL*2 > longWH {
		t.Fatalf("long messages: clrp %.1f vs wormhole %.1f, expected >= 2x gain", longCL, longWH)
	}
	shortWH := run("wormhole", 4, 0)
	shortPCS := run("pcs", 4, 0) // per-message circuits, no reuse
	if shortPCS < shortWH {
		t.Fatalf("short unreused messages should favour wormhole: pcs %.1f vs wh %.1f", shortPCS, shortWH)
	}
}

func TestEventLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	if _, err := s.RenderEvents(&sink, ""); err == nil {
		t.Fatal("render before enable accepted")
	}
	s.EnableEventLog(256)
	if _, err := s.RunLoad(Workload{
		Pattern: "uniform", Load: 0.05, FixedLength: 32,
		WorkingSet: 2, Reuse: 0.8, WantCircuit: true,
	}, 200, 2000); err != nil {
		t.Fatal(err)
	}
	total, retained := s.EventTotals()
	if total == 0 || retained == 0 || retained > 256 {
		t.Fatalf("totals: %d retained %d", total, retained)
	}
	n, err := s.RenderEvents(&sink, "setup-ok")
	if err != nil || n == 0 {
		t.Fatalf("render setup-ok: n=%d err=%v", n, err)
	}
	if !strings.Contains(sink.String(), "setup-ok") {
		t.Fatalf("rendered: %q", sink.String()[:80])
	}
	sink.Reset()
	all, _ := s.RenderEvents(&sink, "")
	if all < n {
		t.Fatal("unfiltered fewer than filtered")
	}
}

// TestConfigFieldsReachTheFabric guards against silently-dropped Config
// fields (every knob must demonstrably change behaviour through the public
// API).
func TestConfigFieldsReachTheFabric(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
		return cfg
	}
	runLat := func(cfg Config, w Workload) (*Result, error) {
		s, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return s.RunLoad(w, 300, 2500)
	}
	long := Workload{Pattern: "neighbor", Load: 0.05, BimodalShort: 16,
		BimodalLong: 256, BimodalPLong: 0.2, WorkingSet: 1, Reuse: 0.95, WantCircuit: true}

	// InitialBufFlits + ReallocPenalty.
	cfg := base()
	cfg.InitialBufFlits = 16
	cfg.ReallocPenalty = 40
	res, err := runLat(cfg, long)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocs == 0 {
		t.Fatal("InitialBufFlits/ReallocPenalty did not reach the fabric")
	}

	// RouteDelay slows wormhole latency.
	whShort := Workload{Pattern: "uniform", Load: 0.03, FixedLength: 8}
	fast := base()
	fast.Protocol = "wormhole"
	slow := fast
	slow.RouteDelay = 3
	rFast, err := runLat(fast, whShort)
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := runLat(slow, whShort)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.AvgLatency <= rFast.AvgLatency+2 {
		t.Fatalf("RouteDelay did not reach the engine: %.1f vs %.1f", rSlow.AvgLatency, rFast.AvgLatency)
	}

	// RecoveryTimeout enables dor-nodateline.
	rec := base()
	rec.Protocol = "wormhole"
	rec.Routing = "dor-nodateline"
	rec.NumVCs = 1
	if _, err := New(rec); err == nil {
		t.Fatal("dor-nodateline without RecoveryTimeout accepted")
	}
	rec.RecoveryTimeout = 64
	if _, err := New(rec); err != nil {
		t.Fatal(err)
	}

	// NoSwitchSpread pins every probe's initial switch to S1: node (1,0) has
	// coordinate sum 1, so with spreading it starts at switch index 1 and
	// without it at 0 (visible in the Fig 5 Initial Switch register).
	initialSwitchOf := func(noSpread bool) int {
		cfg := base()
		cfg.NumSwitches = 3
		cfg.NoSwitchSpread = noSpread
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Send(1, 9, 32, true)
		if err := s.Drain(100_000); err != nil {
			t.Fatal(err)
		}
		e, ok := s.mgr.Fab.Cache(1).Peek(9)
		if !ok {
			t.Fatal("no cache entry after send")
		}
		return e.InitialSwitch
	}
	if got := initialSwitchOf(false); got != 1 {
		t.Fatalf("spread initial switch = %d, want 1", got)
	}
	if got := initialSwitchOf(true); got != 0 {
		t.Fatalf("no-spread initial switch = %d, want 0", got)
	}
}

func TestCircuitsSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Circuits()) != 0 {
		t.Fatal("fresh network has circuits")
	}
	s.Send(0, 10, 64, true)
	s.Send(3, 7, 64, true)
	if err := s.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	// The In-use bit clears when the window ack lands, a few cycles after
	// the delivery that ended the drain.
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	cs := s.Circuits()
	if len(cs) != 2 {
		t.Fatalf("circuits = %d, want 2", len(cs))
	}
	for _, c := range cs {
		if c.Hops < s.Distance(c.Src, c.Dst) {
			t.Fatalf("circuit %d->%d has %d hops < distance", c.Src, c.Dst, c.Hops)
		}
		if c.UseCount < 1 {
			t.Fatalf("circuit %d->%d unused", c.Src, c.Dst)
		}
		if c.InUse {
			t.Fatal("drained circuit still in use")
		}
	}
	// Deterministic order: sorted by (src, dst).
	if cs[0].Src > cs[1].Src {
		t.Fatal("snapshot not sorted")
	}
	// The checkpoint of this state (two cached circuits, idle fabric) has a
	// pinned byte format.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, buf.Bytes(), "3d6cc10f21d0fd064b0291b47cff0db4608309192666e5bcc66bb066842783f7")
}
