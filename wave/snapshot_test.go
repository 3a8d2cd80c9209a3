package wave

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/pcs"
	"repro/internal/pins"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// matrixRow is one configuration of the checkpoint/resume matrix.
type matrixRow struct {
	name     string
	topo     TopologyConfig
	protocol string
	w        Workload
	tweak    func(*Config)
}

var (
	matrixTorus = TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	matrixCube  = TopologyConfig{Kind: "hypercube", Dims: 5}
)

var snapshotMatrix = []matrixRow{
	{"clrp-torus", matrixTorus, "clrp", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 48}, nil},
	{"carp-torus", matrixTorus, "carp", Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}, nil},
	{"wormhole-torus", matrixTorus, "wormhole", Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}, nil},
	{"pcs-torus", matrixTorus, "pcs", Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}, nil},
	{"clrp-hypercube", matrixCube, "clrp", Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48,
		WorkingSet: 4, Reuse: 0.7, RedrawPeriod: 50}, nil},
	{"carp-hypercube", matrixCube, "carp", Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}, nil},
	{"wormhole-hypercube", matrixCube, "wormhole", Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}, nil},
	{"pcs-hypercube", matrixCube, "pcs", Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}, nil},
	{"wormhole-recovery-torus", matrixTorus, "wormhole", Workload{Pattern: "uniform", Load: 0.3, FixedLength: 16},
		func(c *Config) {
			c.Routing = "dor-nodateline"
			c.NumVCs = 1
			c.RecoveryTimeout = 32
			c.CreditDelay = 2
		}},
	{"wormhole-multimsg-torus", matrixTorus, "wormhole", Workload{Pattern: "uniform", Load: 0.3,
		BimodalShort: 2, BimodalLong: 3, BimodalPLong: 0.5},
		func(c *Config) { c.BufDepth = 8 }},
	{"clrp-churn-torus", matrixTorus, "clrp", Workload{Pattern: "hotspot", Load: 0.1, FixedLength: 32,
		WorkingSet: 4, Reuse: 0.7},
		func(c *Config) { c.CacheCapacity = 2 }},
	{"clrp-random-torus", matrixTorus, "clrp", Workload{Pattern: "hotspot", Load: 0.1, FixedLength: 32,
		WorkingSet: 4, Reuse: 0.7},
		func(c *Config) {
			c.CacheCapacity = 2
			c.ReplacePolicy = "random"
		}},
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

// cancelledResumed runs the row's load under a context that the hook
// cancels at the checkpoint cycle, snapshots the stopped simulator, and
// returns the Stats and Result of the snapshot restored and resumed.
func (r matrixRow) cancelledResumed(tb testing.TB) (Stats, Result) {
	tb.Helper()
	s, err := New(r.config())
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.OnInterval(matrixCheckpointAt, func(int64) { cancel() })
	if _, err := s.RunLoadContext(ctx, r.w, matrixWarmup, matrixMeasure); !errors.Is(err, context.Canceled) {
		tb.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	rs, err := Restore(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := rs.ResumeLoad()
	if err != nil {
		tb.Fatalf("ResumeLoad after cancellation: %v", err)
	}
	return rs.Stats(), *res
}

// TestSnapshotResumeMatrix is the checkpoint/resume contract: for every
// protocol on torus and hypercube, with a dynamic fault schedule straddling
// the checkpoint (one repair and one injection still pending as events) and
// the retry machinery armed, three runs must agree bit for bit:
//
//	A — uninterrupted,
//	B — same run with a mid-measurement Snapshot taken (checkpointing must
//	    be a pure observation),
//	C — a fresh process restoring B's snapshot and resuming,
//	D — the run cancelled at the checkpoint cycle, snapshotted once
//	    stopped, restored and resumed.
//
// Stats is comparable with ==, including the per-link flit checksums, so
// equality here means every flit travelled identically. Each row's
// cycle-1000 snapshot bytes are pinned as snapshot/matrix/<row>, so any
// change to the byte format — a field added, dropped, reordered or
// re-widthed in any layer — fails here instead of passing a round trip that
// is merely self-consistent.
//
// The wormhole-recovery row covers the two wormhole branches the others
// leave empty: a credit-return delay (credits in flight in the credit
// pipe) and abort-and-retry recovery on the cyclic dor-nodateline routing
// (parked slots awaiting re-injection). The wormhole-multimsg row uses
// 8-flit buffers and 2–3-flit messages, so at the checkpoint several VCs
// hold the tail of the message they are streaming with the next message's
// head queued behind it. The clrp-churn-torus row (2-entry caches under
// hotspot traffic) checkpoints with probes part-way through an MB-m search
// after a backtrack (TestSnapshotMatrixHoldsBacktrackedSearch); the
// clrp-random-torus row runs the same shape under the random replacement
// policy, so the snapshot carries per-node victim generators that have
// drawn.
func TestSnapshotResumeMatrix(t *testing.T) {
	for _, tc := range snapshotMatrix {
		t.Run(tc.name, func(t *testing.T) {
			sA, err := New(tc.config())
			if err != nil {
				t.Fatal(err)
			}
			checkEvery(t, sA, 500)
			resA, err := sA.RunLoad(tc.w, matrixWarmup, matrixMeasure)
			if err != nil {
				t.Fatal(err)
			}
			statsA := sA.Stats()

			statsB, resB, snap := tc.checkpointed(t)
			pins.Check(t, "snapshot/matrix/"+tc.name, pins.Sum(snap))
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
			checkEvery(t, sC, 500)
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
			if statsD, resD := tc.cancelledResumed(t); statsD != statsA || resD != *resA {
				t.Errorf("cancelled, restored and resumed run diverged:\n A: %+v\n D: %+v", statsA, statsD)
			}
		})
	}
}

// TestFreshSnapshotPinned pins the snapshot bytes of simulators that have
// never stepped (snapshot/fresh/<case>): every register in its reset state, including the fabric
// RNG after it derived the per-node replacement generators and, under the
// random policy, each node's generator state.
func TestFreshSnapshotPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"clrp-random-torus8x8", func(c *Config) {
			c.Topology = matrixTorus
			c.Protocol = "clrp"
			c.ReplacePolicy = "random"
		}},
		{"wormhole-torus8x8", func(c *Config) {
			c.Topology = matrixTorus
			c.Protocol = "wormhole"
		}},
		{"clrp-fattree4x2", func(c *Config) {
			c.Topology = TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}
			c.Routing = "updown"
			c.Protocol = "clrp"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 12345
			tc.tweak(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			pins.Check(t, "snapshot/fresh/"+tc.name, pins.Sum(buf.Bytes()))
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

// TestSnapshotIdleRoundTrip checkpoints a simulator outside any load run,
// pins the bytes (snapshot/idle) and checks the restored copy steps
// identically under hand-driven traffic.
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
	pins.Check(t, "snapshot/idle", pins.Sum(buf.Bytes()))
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

// TestWatchdogTripSurvivesResume checkpoints a run in the middle of a
// stall: two long messages stream over one circuit, so nothing moves for
// cycles while both are in flight, and a small WatchdogStall trips. The
// resumed run must trip at the same cycle with the same ErrStuck as the
// uninterrupted one, so the stall run and the oldest in-flight message
// both survive the snapshot. A load run whose WatchdogMaxAge trips in the
// injection window must do the same through ResumeLoad.
func TestWatchdogTripSurvivesResume(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogStall = 200
	start := func() *Simulator {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Send(0, 3, 4096, false)
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		s.Send(0, 3, 4096, false)
		return s
	}
	trip := func(s *Simulator) *sim.ErrStuck {
		t.Helper()
		err := s.Run(10_000)
		var stuck *sim.ErrStuck
		if !errors.As(err, &stuck) {
			t.Fatalf("run ended with %v, want a watchdog trip", err)
		}
		return stuck
	}
	want := trip(start())
	if want.InFlight != 2 || want.OldestAge <= cfg.WatchdogStall {
		t.Fatalf("trip %+v: want both messages in flight, the oldest past the stall window", want)
	}

	s := start()
	if err := s.Run(want.Cycle - cfg.WatchdogStall/2 - s.Now()); err != nil {
		t.Fatal(err)
	}
	if run := s.wd.SaveState(); run < cfg.WatchdogStall/4 {
		t.Fatalf("checkpoint %d cycles into the stall, want it midway", run)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := trip(r); *got != *want {
		t.Fatalf("resumed run tripped with %+v, uninterrupted with %+v", got, want)
	}

	// A trip inside a load run's injection window: RunLoad returns it
	// before the window ends, and a run checkpointed halfway to the trip,
	// restored and resumed trips with the same ErrStuck.
	load := DefaultConfig()
	load.Topology = matrixTorus
	load.Protocol = "clrp"
	load.Seed = 21
	load.WatchdogMaxAge = 40
	w := Workload{Pattern: "uniform", Load: 0.15, FixedLength: 32, WorkingSet: 3, Reuse: 0.7, RedrawPeriod: 20}
	const window = 1_000_000_000
	runLoad := func(s *Simulator, resume bool) *sim.ErrStuck {
		t.Helper()
		var err error
		if resume {
			_, err = s.ResumeLoad()
		} else {
			_, err = s.RunLoad(w, 300, window)
		}
		var stuck *sim.ErrStuck
		if !errors.As(err, &stuck) {
			t.Fatalf("load run ended with %v, want a watchdog trip", err)
		}
		return stuck
	}
	s, err = New(load)
	if err != nil {
		t.Fatal(err)
	}
	want = runLoad(s, false)
	if want.Cycle >= 300+window || want.Cycle < 4 {
		t.Fatalf("load run tripped at cycle %d, want early in the injection window", want.Cycle)
	}
	if s, err = New(load); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	s.OnInterval(want.Cycle/2, func(now int64) {
		if buf.Len() == 0 {
			if err := s.Snapshot(&buf); err != nil {
				t.Error(err)
			}
		}
	})
	if got := runLoad(s, false); *got != *want {
		t.Fatalf("checkpointed load run tripped with %+v, uninterrupted with %+v", got, want)
	}
	if r, err = Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := runLoad(r, true); *got != *want {
		t.Fatalf("resumed load run tripped with %+v, uninterrupted with %+v", got, want)
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

// TestRestoreRefusesNegativeClock: the clock follows the embedded
// configuration. Messages sent after resuming at a negative cycle would
// carry negative inject times, which the protocol's in-flight window reads
// as delivered, so a digest-valid payload with clock -5 is refused.
func TestRestoreRefusesNegativeClock(t *testing.T) {
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Send(1, 14, 16, false)
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	payload := slices.Clone(buf.Bytes()[len(snapshot.Magic)+4 : buf.Len()-sha256.Size])
	cfg, _ := splitConfig(payload)
	clock := int64(-5)
	binary.LittleEndian.PutUint64(payload[4+len(cfg):], uint64(clock))
	if _, err := Restore(bytes.NewReader(stampPayload(payload))); err == nil || !strings.Contains(err.Error(), "clock -5") {
		t.Fatalf("err = %v, want a negative clock refused", err)
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
// simulator, never panic, and stay under fuzzAllocBound. A restored
// simulator then steps up to 4 cycles: an error there is fine, a panic is
// not, since a decoder that accepts state the engine cannot run is as
// broken as one that crashes.
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
		if r.name == "clrp-torus" {
			f.Add(negativeRotationPayload(f, payload))
		}
	}
	for _, small := range [][]byte{smallFuzzSeed(f), smallWormholeSeed(f)} {
		cfg, _ := splitConfig(small)
		configs = append(configs, cfg)
		f.Add(small)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if cfg, ok := splitConfig(payload); ok && json.Valid(cfg) &&
			!slices.ContainsFunc(configs, func(c []byte) bool { return bytes.Equal(c, cfg) }) {
			t.Skip("configuration differs from the seeds'")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Restore(bytes.NewReader(stampPayload(payload)))
		if err == nil && s == nil {
			t.Fatal("Restore returned neither a simulator nor an error")
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > fuzzAllocBound {
			t.Fatalf("Restore allocated %d bytes (bound %d)", grew, fuzzAllocBound)
		}
		for i := 0; err == nil && i < 4; i++ {
			err = s.Step()
		}
	})
}

// smallFuzzSeed returns the payload of a 4x4-torus CLRP checkpoint taken
// mid-RunLoad, at the first cycle from 200 on with a probe in flight, once
// locality working sets are drawn. It is about 15 KB where the matrix seeds
// are 57-80 KB, and it still reaches the generator's working-set decoder
// and the PCS probe decoder.
func smallFuzzSeed(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	cfg.Protocol = "clrp"
	cfg.Seed = 99
	// The fewest per-link and per-node registers a CLRP torus runs with:
	// they, not the traffic, set the size of a small fabric's checkpoint.
	cfg.NumSwitches, cfg.NumVCs, cfg.Routing, cfg.BufDepth, cfg.CacheCapacity = 1, 2, "dor", 2, 2
	w := Workload{Pattern: "uniform", Load: 0.2, FixedLength: 24, WorkingSet: 2, Reuse: 0.8, RedrawPeriod: 6}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	s.OnInterval(1, func(now int64) {
		if buf.Len() > 0 || now < 200 || s.mgr.Fab.PCS.ActiveProbes() == 0 {
			return
		}
		if err := s.Snapshot(&buf); err != nil {
			tb.Error(err)
		}
	})
	if _, err := s.RunLoad(w, 100, 400); err != nil {
		tb.Fatal(err)
	}
	snap := buf.Bytes()
	if len(snap) == 0 || len(snap) > 16<<10 {
		tb.Fatalf("small seed checkpoint is %d bytes, want 1..16 KB", len(snap))
	}
	r, err := Restore(bytes.NewReader(snap))
	if err != nil {
		tb.Fatal(err)
	}
	if r.mgr.Fab.PCS.ActiveProbes() == 0 || !r.InLoadRun() {
		tb.Fatal("small seed has no probe in flight or no load run")
	}
	return snap[len(snapshot.Magic)+4 : len(snap)-sha256.Size]
}

// smallWormholeSeed returns the payload of a 4x4-torus wormhole checkpoint
// taken mid-RunLoad, at a cycle (105) where its 3-flit messages in 4-flit
// buffers leave two VCs holding a header queued behind the tail of the
// message they stream and two streaming with an empty buffer, one of them
// owned by the other. So the seed alone reaches the decoder's message-run
// rebuild and its walk up the channel owners.
func smallWormholeSeed(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	cfg.Protocol = "wormhole"
	cfg.Seed = 7
	cfg.NumVCs, cfg.Routing, cfg.BufDepth = 2, "dor", 4
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	s.OnInterval(1, func(now int64) {
		if now != 105 {
			return
		}
		if err := s.Snapshot(&buf); err != nil {
			tb.Error(err)
		}
	})
	if _, err := s.RunLoad(Workload{Pattern: "uniform", Load: 0.35, FixedLength: 3}, 100, 400); err != nil {
		tb.Fatal(err)
	}
	snap := buf.Bytes()
	if len(snap) == 0 || len(snap) > 16<<10 {
		tb.Fatalf("small wormhole seed checkpoint is %d bytes, want 1..16 KB", len(snap))
	}
	r, err := Restore(bytes.NewReader(snap))
	if err != nil {
		tb.Fatal(err)
	}
	if r.mgr.Fab.WH.ActivePorts() == 0 || !r.InLoadRun() {
		tb.Fatal("small wormhole seed has no port streaming or no load run")
	}
	return snap[len(snapshot.Magic)+4 : len(snap)-sha256.Size]
}

// negativeRotationPayload returns a copy of a checkpoint payload taken at
// cycle matrixCheckpointAt with the wormhole engine's rotation offset set to
// -3, and checks that Restore refuses it by name. The engine writes its
// last cycle and then rr, the number of cycles it has run, so the pair
// locates the field.
func negativeRotationPayload(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	field := binary.LittleEndian.AppendUint64(nil, matrixCheckpointAt-1)
	field = binary.LittleEndian.AppendUint64(field, matrixCheckpointAt)
	if n := bytes.Count(payload, field); n != 1 {
		tb.Fatalf("payload holds the engine's (now, rr) pair %d times, want once", n)
	}
	forged := slices.Clone(payload)
	rr := int64(-3)
	binary.LittleEndian.PutUint64(forged[bytes.Index(payload, field)+8:], uint64(rr))
	if _, err := Restore(bytes.NewReader(stampPayload(forged))); err == nil || !strings.Contains(err.Error(), "rr = -3") {
		tb.Fatalf("forged rr: err = %v, want a negative rotation offset refused", err)
	}
	return forged
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
