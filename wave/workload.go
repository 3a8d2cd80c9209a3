package wave

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// randomFaults adapts the fault package (kept out of simulator.go to keep
// the public surface tight).
func randomFaults(topo topology.Topology, numSwitches, count int, seed uint64) (fault.Plan, error) {
	return fault.RandomChannels(topo, numSwitches, count, seed)
}

// Workload describes synthetic open-loop traffic for RunLoad.
type Workload struct {
	// Pattern is "uniform", "transpose", "bitreverse", "bitcomplement",
	// "tornado", "neighbor" or "hotspot".
	Pattern string

	// Load is the applied load in flits per node per cycle.
	Load float64

	// FixedLength, if nonzero, fixes every message at that many flits.
	FixedLength int
	// Bimodal short/long mix, used when FixedLength is zero and BimodalLong
	// is nonzero.
	BimodalShort, BimodalLong int
	BimodalPLong              float64

	// Locality, when WorkingSet > 0, wraps the pattern with per-node working
	// sets: with probability Reuse a message goes to the working set,
	// redrawn every RedrawPeriod messages (0 = never).
	WorkingSet   int
	Reuse        float64
	RedrawPeriod int

	// WantCircuit is passed to Send (CARP compiler decision).
	WantCircuit bool

	// Seed for the traffic stream; 0 borrows the simulator seed + 1.
	Seed uint64
}

// Validate refuses a negative WorkingSet or RedrawPeriod, which would
// otherwise read as "no locality" and "never redraw", and a length mix no
// message can be drawn from: a negative FixedLength, and, when FixedLength
// is zero, a bimodal mix with a length below one flit or a BimodalPLong
// that is not a probability. The pattern, load and the remaining locality
// fields are checked where they are built (traffic.NewPattern,
// NewGenerator, NewLocality). Every open-loop run passes through it:
// RunLoad, and Restore of a load run that ResumeLoad continues.
func (w Workload) Validate() error {
	if err := validateLocality(w.WorkingSet, w.RedrawPeriod); err != nil {
		return err
	}
	switch {
	case w.FixedLength < 0:
		return fmt.Errorf("wave: FixedLength must be >= 0, got %d", w.FixedLength)
	case w.FixedLength > 0:
		return nil
	case w.BimodalLong == 0 && w.BimodalShort == 0:
		return fmt.Errorf("wave: workload needs FixedLength or Bimodal* lengths")
	case w.BimodalShort < 1 || w.BimodalLong < 1:
		return fmt.Errorf("wave: BimodalShort and BimodalLong must be >= 1 flit, got %d and %d", w.BimodalShort, w.BimodalLong)
	case !(w.BimodalPLong >= 0 && w.BimodalPLong <= 1): // NaN fails both
		return fmt.Errorf("wave: BimodalPLong must be a probability in [0, 1], got %g", w.BimodalPLong)
	}
	return nil
}

// validateLocality refuses the negative locality fields that the
// workloads' WorkingSet > 0 and traffic.Locality's Period > 0 tests would
// silently read as off.
func validateLocality(workingSet, redrawPeriod int) error {
	switch {
	case workingSet < 0:
		return fmt.Errorf("wave: WorkingSet must be >= 0, got %d", workingSet)
	case redrawPeriod < 0:
		return fmt.Errorf("wave: RedrawPeriod must be >= 0, got %d", redrawPeriod)
	}
	return nil
}

func (w Workload) lengthDist() traffic.LengthDist {
	if w.FixedLength > 0 {
		return traffic.Fixed{L: w.FixedLength}
	}
	return traffic.Bimodal{Short: w.BimodalShort, Long: w.BimodalLong, PLong: w.BimodalPLong}
}

// Result summarises a measured run.
type Result struct {
	Protocol string
	Workload Workload

	// Cycles actually simulated (warmup + measurement).
	Cycles int64
	// Delivered messages inside the measurement window.
	Delivered int64

	AvgLatency float64
	P50Latency float64
	P95Latency float64
	P99Latency float64
	MaxLatency float64

	// Throughput is accepted flits per node per cycle.
	Throughput float64

	// CircuitFraction is the share of measured messages carried by circuits.
	CircuitFraction float64
	// AvgCircuitLatency / AvgWormholeLatency split by substrate (0 if none).
	AvgCircuitLatency  float64
	AvgWormholeLatency float64

	// HitRate is the aggregate circuit-cache hit rate.
	HitRate float64
	// AvgSetupCycles is the mean successful circuit-setup latency.
	AvgSetupCycles float64
	// AvgCircuitWait is the mean time a circuit-carried message spent between
	// Send and its transfer starting (setup plus queueing behind the in-use
	// circuit) — the latency-breakdown companion to AvgCircuitLatency.
	AvgCircuitWait float64
	// RecoveryAborts counts wormhole abort-and-retry events (0 unless
	// Config.RecoveryTimeout is set).
	RecoveryAborts int64
	// Reallocs counts endpoint-buffer re-allocations (0 unless
	// Config.InitialBufFlits is set; CLRP only).
	Reallocs int64

	Counters ProbeCounters
}

// String renders a one-line digest.
func (r Result) String() string {
	return fmt.Sprintf("%s: lat=%.1f (p99=%.0f) thr=%.4f circ=%.0f%% hit=%.0f%%",
		r.Protocol, r.AvgLatency, r.P99Latency, r.Throughput,
		r.CircuitFraction*100, r.HitRate*100)
}

// loadRun is the resumable state of an in-progress RunLoad: the workload,
// its traffic generator and statistics collector, and the absolute cycle
// bounds of the injection and drain phases. Holding it on the Simulator —
// rather than in RunLoad's frame — is what lets a checkpoint taken mid-run
// capture it and ResumeLoad pick the run back up bit-exactly.
type loadRun struct {
	w       Workload
	gen     *traffic.Generator
	run     *stats.Run
	warmup  int64
	measure int64
	// end is the absolute cycle at which injection stops; drainDeadline the
	// absolute cycle by which the drain must complete. Absolute bounds make
	// a resumed run behave exactly like the uninterrupted one.
	end           int64
	drainDeadline int64
}

// buildGenerator constructs the workload's traffic generator (pattern,
// optional locality wrapper, length distribution, seeded RNG stream).
func (s *Simulator) buildGenerator(w Workload) (*traffic.Generator, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pat, err := traffic.NewPattern(w.Pattern, s.topo)
	if err != nil {
		return nil, err
	}
	if w.WorkingSet > 0 {
		pat, err = traffic.NewLocality(pat, s.topo.Hosts(), w.WorkingSet, w.Reuse, w.RedrawPeriod)
		if err != nil {
			return nil, err
		}
	}
	seed := w.Seed
	if seed == 0 {
		seed = s.cfg.Seed + 1
	}
	return traffic.NewGenerator(pat, w.lengthDist(), w.Load, s.topo.Hosts(), seed)
}

// RunLoad drives the simulator with open-loop traffic: `warmup` cycles to
// reach steady state (deliveries excluded), then `measure` cycles of
// recorded traffic, then a drain so every injected message completes. It
// returns aggregate statistics. The simulator must be freshly constructed
// (cycle 0) for meaningful warm-up handling.
func (s *Simulator) RunLoad(w Workload, warmup, measure int64) (*Result, error) {
	return s.RunLoadContext(context.Background(), w, warmup, measure)
}

// RunLoadContext is RunLoad with between-cycle cancellation: a cancelled
// run returns the context's error as soon as the current cycle completes,
// leaving the simulator consistent (counters and Stats remain inspectable,
// and a Snapshot taken now can be resumed with ResumeLoad).
func (s *Simulator) RunLoadContext(ctx context.Context, w Workload, warmup, measure int64) (*Result, error) {
	gen, err := s.buildGenerator(w)
	if err != nil {
		return nil, err
	}
	end := s.now + warmup + measure
	// Drain with a generous budget so tail latencies are complete. The
	// budget must scale with the network as well as with the run length:
	// on a mega topology (128x128 torus) the in-flight tail at injection
	// stop trickles out over many multiples of the diameter as blocked
	// wavefronts retry, so a short run on a huge fabric needs far more
	// drain room than (warmup+measure) alone suggests.
	drain := (warmup + measure) * 20
	diameter := int64(s.topo.Diameter())
	if scaled := diameter * 256; scaled > drain {
		drain = scaled
	}
	s.load = &loadRun{
		w: w, gen: gen, run: stats.NewRun(s.now + warmup),
		warmup: warmup, measure: measure,
		end:           end,
		drainDeadline: end + drain,
	}
	return s.finishLoad(ctx)
}

// ResumeLoad continues a load run restored mid-flight from a snapshot (or
// interrupted by context cancellation), returning the same Result the
// uninterrupted RunLoad would have.
func (s *Simulator) ResumeLoad() (*Result, error) {
	return s.ResumeLoadContext(context.Background())
}

// ResumeLoadContext is ResumeLoad with between-cycle cancellation.
func (s *Simulator) ResumeLoadContext(ctx context.Context) (*Result, error) {
	if s.load == nil {
		return nil, fmt.Errorf("wave: no load run in progress to resume")
	}
	return s.finishLoad(ctx)
}

// finishLoad drives the current load run to completion from wherever the
// clock stands: injection until the measurement window closes, then the
// drain, then the aggregate Result. On error (cancellation, watchdog) the
// load state stays armed so the run can be checkpointed and resumed.
func (s *Simulator) finishLoad(ctx context.Context) (*Result, error) {
	ld := s.load
	if err := s.inject(ctx, ld); err != nil {
		return nil, err
	}
	if err := s.DrainContext(ctx, ld.drainDeadline-s.now); err != nil {
		return nil, err
	}

	run := ld.run
	cs := s.CacheStats()
	ctr := s.mgr.Ctr
	res := &Result{
		Protocol:           s.cfg.Protocol,
		Workload:           ld.w,
		Cycles:             s.now,
		Delivered:          run.MsgsDelivered,
		AvgLatency:         run.Latency.Mean(),
		P50Latency:         run.Latency.Percentile(50),
		P95Latency:         run.Latency.Percentile(95),
		P99Latency:         run.Latency.Percentile(99),
		MaxLatency:         run.Latency.Max(),
		Throughput:         run.Throughput(s.topo.Hosts()),
		AvgCircuitLatency:  run.CircuitLatency.Mean(),
		AvgWormholeLatency: run.WormholeLatency.Mean(),
		HitRate:            cs.HitRate(),
		RecoveryAborts:     s.mgr.Fab.WH.RecoveryAborts(),
		Reallocs:           s.mgr.Fab.Reallocs,
		Counters:           s.ProbeCounters(),
	}
	if run.MsgsDelivered > 0 {
		res.CircuitFraction = float64(run.CircuitLatency.N()) / float64(run.MsgsDelivered)
	}
	if ctr.SetupsOK > 0 {
		res.AvgSetupCycles = float64(ctr.SetupCyclesTotal) / float64(ctr.SetupsOK)
	}
	if ctr.CircuitSendsStarted > 0 {
		res.AvgCircuitWait = float64(ctr.CircuitWaitCycles) / float64(ctr.CircuitSendsStarted)
	}
	s.load = nil
	return res, nil
}

// inject runs the injection window from the current cycle to ld.end.
func (s *Simulator) inject(ctx context.Context, ld *loadRun) error {
	send := func(src, dst topology.Node, length int) {
		s.mgr.Send(src, dst, length, s.now, ld.w.WantCircuit)
	}
	for s.now < ld.end {
		// Cancellation is checked before the cycle's traffic is drawn, never
		// between Tick and Step: a resumed run would draw that cycle twice.
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		ld.gen.Tick(send)
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// OpenAll issues CARP OpenCircuit for every (src, dst) pair a locality
// working set would hit — a helper for CARP workloads where the "compiler"
// knows the communication pattern. It opens one circuit per node toward its
// pattern destination (deterministic patterns only).
func (s *Simulator) OpenAll(patternName string) error {
	pat, err := traffic.NewPattern(patternName, s.topo)
	if err != nil {
		return err
	}
	switch pat.(type) {
	case traffic.Uniform, traffic.Hotspot:
		return fmt.Errorf("wave: OpenAll needs a deterministic pattern, got %q", patternName)
	}
	for n := 0; n < s.topo.Hosts(); n++ {
		dst := pat.Pick(topology.Node(n), nil)
		if int(dst) != n {
			s.OpenCircuit(n, int(dst))
		}
	}
	return nil
}
