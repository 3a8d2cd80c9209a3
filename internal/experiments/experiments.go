// Package experiments regenerates every table and figure of the evaluation
// matrix in DESIGN.md (E1–E21). Each experiment returns a Report holding a
// paper-style text table plus commentary on the expected shape; cmd/waveexp
// prints them and EXPERIMENTS.md records paper-vs-measured (a test checks
// that its tables match).
//
// Every experiment is a list of sweep points handed to one runner, sweep,
// which runs them concurrently on a bounded worker pool (the simulator
// itself is single-threaded and deterministic; parallelism is across runs,
// so results are reproducible regardless of scheduling).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/msglayer"
	"repro/internal/stats"
	"repro/wave"
)

// Params scales the experiment suite.
type Params struct {
	// Radix is the side of the square torus (default 8).
	Radix int
	// Warmup and Measure are the cycle budgets per run.
	Warmup, Measure int64
	// Seed is the base RNG seed.
	Seed uint64
}

// Defaults returns the full-size parameters used for EXPERIMENTS.md.
func Defaults() Params {
	return Params{Radix: 8, Warmup: 2000, Measure: 12000, Seed: 1}
}

// Quick returns a reduced configuration for tests and smoke runs.
func Quick() Params {
	return Params{Radix: 4, Warmup: 500, Measure: 3000, Seed: 1}
}

// Report is one regenerated table/figure.
type Report struct {
	ID    string
	Title string
	Table *stats.Table
	Notes []string
}

// Registry maps experiment IDs to their functions, in presentation order.
// Every experiment honours context cancellation between sweep points and
// (through the simulator's context-aware run loops) between cycles.
func Registry() []struct {
	ID string
	Fn func(context.Context, Params) (*Report, error)
} {
	return []struct {
		ID string
		Fn func(context.Context, Params) (*Report, error)
	}{
		{"e1", E1MessageLength},
		{"e2", E2LoadSweep},
		{"e3", E3Reuse},
		{"e4", E4Replacement},
		{"e5", E5Misroute},
		{"e6", E6SwitchCount},
		{"e7", E7Stress},
		{"e8", E8Faults},
		{"e9", E9Ablation},
		{"e10", E10ClockMult},
		{"e11", E11Window},
		{"e12", E12Topology},
		{"e13", E13ClosedLoop},
		{"e14", E14Hybrid},
		{"e15", E15RouterCost},
		{"e16", E16Recovery},
		{"e17", E17CacheCapacity},
		{"e18", E18SwitchSpread},
		{"e19", E19EndpointBuffers},
		{"e20", E20SoftwareLayer},
		{"e21", E21RoutingFamily},
	}
}

// baseConfig returns the shared simulator configuration.
func baseConfig(p Params) wave.Config {
	cfg := wave.DefaultConfig()
	cfg.Topology = wave.TopologyConfig{Kind: "torus", Radix: []int{p.Radix, p.Radix}}
	cfg.Seed = p.Seed
	return cfg
}

// point is one simulator run of a sweep: an open-loop workload run for
// Params.Warmup + Params.Measure cycles, or a closed-loop one when closed
// is set.
type point struct {
	cfg    wave.Config
	w      wave.Workload
	closed *wave.ClosedWorkload

	// faults is the number of static wave-channel faults, drawn with
	// faultSeed, injected before the run.
	faults    int
	faultSeed uint64
	// open, when set, runs on the fresh simulator before the run (the CARP
	// compiler's pre-opened circuits).
	open func(*wave.Simulator)
}

// outcome is what one point produced: its run result and the simulator
// counters read after the run.
type outcome struct {
	res    *wave.Result
	closed *wave.ClosedResult
	st     wave.Stats
}

// run builds a simulator for pt and runs it under ctx.
func (pt point) run(ctx context.Context, p Params) (o outcome, err error) {
	s, err := wave.New(pt.cfg)
	if err != nil {
		return o, err
	}
	if pt.faults > 0 {
		if err = s.InjectFaults(pt.faults, pt.faultSeed); err != nil {
			return o, err
		}
	}
	if pt.open != nil {
		pt.open(s)
	}
	if pt.closed != nil {
		o.closed, err = s.RunClosedLoopContext(ctx, *pt.closed, 20_000_000)
	} else {
		o.res, err = s.RunLoadContext(ctx, pt.w, p.Warmup, p.Measure)
	}
	o.st = s.Stats()
	return o, err
}

// sweep runs every point across a bounded pool and returns their outcomes
// in point order, or the first failure. Cancelling ctx stops dispatch
// between points (and the context-aware run loops stop in-flight points
// between cycles).
func sweep(ctx context.Context, id string, p Params, pts []point) ([]outcome, error) {
	outs := make([]outcome, len(pts))
	errs := make([]error, len(pts))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range max(1, min(runtime.GOMAXPROCS(0), len(pts))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i], errs[i] = pts[i].run(ctx, p)
			}
		}()
	}
dispatch:
	for i := range pts {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s point %d (%s): %w", id, i, pts[i].cfg.Protocol, err)
		}
	}
	return outs, nil
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// probeSuccess is the fraction of finished probes that reserved a circuit.
func probeSuccess(pc wave.ProbeCounters) float64 {
	return ratio(pc.Succeeded, pc.Succeeded+pc.Failed)
}

// ---------------------------------------------------------------------------
// E1 — latency vs message length, wormhole vs wave switching (no reuse and
// with reuse). The paper's headline: wave switching wins by a factor > 3 for
// messages >= 128 flits even without circuit reuse (k=1 full-width config).

// headlinePoint is the E1 configuration: low uniform load over a single
// full-width wave switch with no misrouting.
func headlinePoint(p Params, protocol string, length int) point {
	cfg := baseConfig(p)
	cfg.Protocol = protocol
	cfg.NumSwitches = 1 // full-width wave channel
	cfg.MaxMisroutes = 0
	return point{cfg: cfg, w: wave.Workload{Pattern: "uniform", Load: 0.02, FixedLength: length, WantCircuit: true}}
}

// E1MessageLength regenerates the message-length sweep.
func E1MessageLength(ctx context.Context, p Params) (*Report, error) {
	lengths := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	var pts []point
	for _, l := range lengths {
		// pcs sets up a circuit per message: no reuse.
		reuse := headlinePoint(p, "clrp", l)
		reuse.w.WorkingSet = 2
		reuse.w.Reuse = 0.9
		pts = append(pts, headlinePoint(p, "wormhole", l), headlinePoint(p, "pcs", l), reuse)
	}
	outs, err := sweep(ctx, "e1", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("len(flits)", "wormhole", "wave-noreuse", "wave-reuse(clrp)", "gain-noreuse", "gain-reuse")
	for i, l := range lengths {
		wh, pcs, clrp := outs[3*i].res.AvgLatency, outs[3*i+1].res.AvgLatency, outs[3*i+2].res.AvgLatency
		tb.AddRow(l, wh, pcs, clrp, wh/pcs, wh/clrp)
	}
	return &Report{
		ID:    "E1",
		Title: "Latency vs message length (k=1, 4x wave clock, uniform, low load)",
		Table: tb,
		Notes: []string{
			"Paper claim: wave switching gains a factor > 3 for messages >= 128 flits even without reuse.",
			"Expected shape: gain-noreuse < 1 for short messages (setup dominates), crossing above 1 and",
			"approaching ~WaveClockMult for long messages; reuse pulls the crossover to shorter messages.",
		},
	}, nil
}

// Headline replicates the paper's headline claim — the wormhole/wave
// latency ratio for 256-flit messages without reuse, in E1's configuration —
// across reps seeds (p.Seed, p.Seed+1, ...) and returns the mean gain and
// its 95% confidence half-width.
func Headline(ctx context.Context, p Params, reps int) (mean, ci float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("experiments: reps must be >= 1")
	}
	var pts []point
	for i := range reps {
		seed := p.Seed + uint64(i)
		for _, protocol := range []string{"wormhole", "pcs"} {
			pt := headlinePoint(p, protocol, 256)
			pt.cfg.Seed = seed
			pt.w.Seed = seed + 77
			pts = append(pts, pt)
		}
	}
	outs, err := sweep(ctx, "headline", p, pts)
	if err != nil {
		return 0, 0, err
	}
	var gain stats.Series
	for i := 0; i < len(outs); i += 2 {
		gain.Add(outs[i].res.AvgLatency / outs[i+1].res.AvgLatency)
	}
	return gain.Mean(), gain.CI95(), nil
}

// ---------------------------------------------------------------------------
// E2 — latency and accepted throughput vs applied load.

// E2LoadSweep regenerates the load sweep for all protocols.
func E2LoadSweep(ctx context.Context, p Params) (*Report, error) {
	loads := []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30}
	protos := []string{"wormhole", "clrp", "carp"}
	var pts []point
	for _, l := range loads {
		for _, proto := range protos {
			cfg := baseConfig(p)
			cfg.Protocol = proto
			pt := point{cfg: cfg, w: wave.Workload{
				Pattern: "uniform", Load: l, FixedLength: 64,
				WorkingSet: 4, Reuse: 0.8, WantCircuit: true,
			}}
			if proto == "carp" {
				// The compiler opens circuits for each node's working set
				// lazily: CARP sends to unopened destinations use wormhole;
				// to keep the comparison fair the harness pre-opens the hot
				// neighbours.
				pt.open = func(s *wave.Simulator) {
					for n := 0; n < s.Nodes(); n++ {
						s.OpenCircuit(n, (n+1)%s.Nodes())
						s.OpenCircuit(n, (n+5)%s.Nodes())
					}
				}
			}
			pts = append(pts, pt)
		}
	}
	outs, err := sweep(ctx, "e2", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("load", "wh-lat", "wh-thr", "clrp-lat", "clrp-thr", "carp-lat", "carp-thr")
	for i, l := range loads {
		row := []any{l}
		for _, o := range outs[3*i : 3*i+3] {
			row = append(row, o.res.AvgLatency, o.res.Throughput)
		}
		tb.AddRow(row...)
	}
	return &Report{
		ID:    "E2",
		Title: "Latency and accepted throughput vs applied load (64-flit messages, 80% working-set reuse)",
		Table: tb,
		Notes: []string{
			"Expected shape: all protocols track applied load at low rates; wormhole latency blows up",
			"first as it saturates, while CLRP/CARP sustain higher accepted throughput on circuits.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E3 — circuit reuse: where does CLRP start paying for short messages?

// E3Reuse regenerates the reuse-probability sweep.
func E3Reuse(ctx context.Context, p Params) (*Report, error) {
	reuses := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95}
	// Spatially mapped processes ("near"): circuits are short, so the
	// binding constraint is temporal reuse — the variable under test.
	w := wave.Workload{Pattern: "near", Load: 0.05, FixedLength: 16, WantCircuit: true}
	cfg := baseConfig(p)
	cfg.Protocol = "wormhole"
	pts := []point{{cfg: cfg, w: w}}
	for _, r := range reuses {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		w := w
		if r > 0 {
			w.WorkingSet = 2
			w.Reuse = r
		}
		pts = append(pts, point{cfg: cfg, w: w})
	}
	outs, err := sweep(ctx, "e3", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("reuse-p", "clrp-lat", "hit-rate", "wormhole-lat", "clrp/wh")
	wh := outs[0].res.AvgLatency
	for i, r := range reuses {
		res := outs[i+1].res
		tb.AddRow(r, res.AvgLatency, res.HitRate, wh, res.AvgLatency/wh)
	}
	return &Report{
		ID:    "E3",
		Title: "Short messages (16 flits): CLRP latency vs working-set reuse probability",
		Table: tb,
		Notes: []string{
			"Paper claim: for short messages wave switching can only improve performance if circuits",
			"are reused. Expected shape: clrp/wh ratio > 1 at reuse 0, falling below 1 at high reuse.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E4 — replacement algorithms under cache pressure.

// E4Replacement regenerates the replacement-policy comparison.
func E4Replacement(ctx context.Context, p Params) (*Report, error) {
	policies := []string{"lru", "lfu", "random"}
	setSizes := []int{4, 8, 16}
	// Working sets cannot exceed the number of possible destinations.
	maxSet := p.Radix*p.Radix - 2
	for i, s := range setSizes {
		if s > maxSet {
			setSizes[i] = maxSet
		}
	}
	var pts []point
	for _, pol := range policies {
		for _, set := range setSizes {
			cfg := baseConfig(p)
			cfg.Protocol = "clrp"
			cfg.CacheCapacity = 4 // pressure: working sets up to 4x capacity
			cfg.ReplacePolicy = pol
			// "near" keeps circuits short so cache capacity — not channel
			// availability — is the binding constraint the policies manage.
			pts = append(pts, point{cfg: cfg, w: wave.Workload{
				Pattern: "near", Load: 0.05, FixedLength: 32,
				WorkingSet: set, Reuse: 0.9, RedrawPeriod: 0, WantCircuit: true,
			}})
		}
	}
	outs, err := sweep(ctx, "e4", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("policy", "set=4 hit", "set=4 lat", "set=8 hit", "set=8 lat", "set=16 hit", "set=16 lat")
	for i, pol := range policies {
		row := []any{pol}
		for _, o := range outs[3*i : 3*i+3] {
			row = append(row, o.res.HitRate, o.res.AvgLatency)
		}
		tb.AddRow(row...)
	}
	return &Report{
		ID:    "E4",
		Title: "Replacement algorithms under cache pressure (capacity 4, 90% reuse)",
		Table: tb,
		Notes: []string{
			"Expected shape: hit rates fall as working set exceeds capacity; LRU/LFU beat random",
			"most clearly when the set is just above capacity.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E5 — MB-m misroute budget.

// E5Misroute regenerates the misroute-budget sweep.
func E5Misroute(ctx context.Context, p Params) (*Report, error) {
	ms := []int{0, 1, 2, 3, 4}
	var pts []point
	for _, m := range ms {
		cfg := baseConfig(p)
		cfg.Protocol = "pcs" // every message probes: maximal probe pressure
		cfg.MaxMisroutes = m
		cfg.NumSwitches = 1 // a single wave switch: probes collide constantly
		pts = append(pts, point{cfg: cfg, w: wave.Workload{Pattern: "uniform", Load: 0.15, FixedLength: 128, WantCircuit: true}})
	}
	outs, err := sweep(ctx, "e5", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("m", "probe-success", "avg-setup-cycles", "misroutes/probe")
	for i, m := range ms {
		res := outs[i].res
		pc := res.Counters
		misPer := 0.0
		if pc.Succeeded > 0 {
			misPer = ratio(pc.Misroutes, pc.Launched)
		}
		tb.AddRow(m, probeSuccess(pc), res.AvgSetupCycles, misPer)
	}
	return &Report{
		ID:    "E5",
		Title: "MB-m misroute budget vs probe success (per-message circuits, contended network)",
		Table: tb,
		Notes: []string{
			"Expected shape: success rises with m and saturates within a few misroutes; setup",
			"latency grows slowly with m as longer detours are accepted.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E6 — number of wave switches k (bandwidth split vs circuit concurrency).

// E6SwitchCount regenerates the k sweep.
func E6SwitchCount(ctx context.Context, p Params) (*Report, error) {
	ks := []int{1, 2, 3, 4}
	// Two workloads probe the two sides of the trade-off: short messages
	// with a wide working set stress circuit *availability* (k helps); long
	// messages stress per-circuit *bandwidth* (k hurts).
	short := wave.Workload{
		Pattern: "near", Load: 0.08, FixedLength: 16,
		WorkingSet: 6, Reuse: 0.9, WantCircuit: true,
	}
	long := wave.Workload{
		Pattern: "near", Load: 0.08, FixedLength: 256,
		WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
	}
	var pts []point
	for _, k := range ks {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = k
		pts = append(pts, point{cfg: cfg, w: short}, point{cfg: cfg, w: long})
	}
	outs, err := sweep(ctx, "e6", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("k", "short-msg-lat", "short-hit-rate", "long-msg-lat", "per-circuit-rate")
	for i, k := range ks {
		s, l := outs[2*i].res, outs[2*i+1].res
		tb.AddRow(k, s.AvgLatency, s.HitRate, l.AvgLatency, 4.0/float64(k))
	}
	return &Report{
		ID:    "E6",
		Title: "Wave switch count k: circuit concurrency (short msgs, wide working set) vs channel split (long msgs)",
		Table: tb,
		Notes: []string{
			"The paper: 'it is not recommended to split each channel into many narrow physical",
			"channels'. Expected shape: short-message latency and hit rate improve with k (more",
			"concurrent circuits fit), long-message latency worsens (each circuit streams at 4/k).",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E7 — theorem validation under stress (the deadlock/livelock experiment).

// E7Stress regenerates the saturation stress table.
func E7Stress(ctx context.Context, p Params) (*Report, error) {
	protos := []string{"wormhole", "clrp", "carp", "pcs"}
	var pts []point
	for _, proto := range protos {
		cfg := baseConfig(p)
		cfg.Protocol = proto
		cfg.CacheCapacity = 2 // maximal replacement churn
		pts = append(pts, point{cfg: cfg, w: wave.Workload{
			Pattern: "hotspot", Load: 0.25, FixedLength: 32,
			WorkingSet: 4, Reuse: 0.7, WantCircuit: true,
		}})
	}
	outs, err := sweep(ctx, "e7", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("protocol", "delivered", "stuck", "max-latency", "force-waits", "releases")
	for i, proto := range protos {
		res := outs[i].res
		tb.AddRow(proto, res.Delivered, 0, res.MaxLatency, res.Counters.ForceWaits, res.Counters.ReleasesSent)
	}
	return &Report{
		ID:    "E7",
		Title: "Theorems 1-4: hotspot saturation stress; every message delivered (watchdog-verified)",
		Table: tb,
		Notes: []string{
			"stuck = 0 by construction: the run fails (watchdog) if any message is undeliverable.",
			"Force waits and release flits show the Theorem 1 machinery actually exercised.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E8 — static fault tolerance of circuit setup.

// E8Faults regenerates the fault sweep.
func E8Faults(ctx context.Context, p Params) (*Report, error) {
	staticCounts := []int{0, 8, 16, 32, 64, 128}
	transientCounts := []int{8, 16, 32}
	w := wave.Workload{
		Pattern: "near", Load: 0.05, FixedLength: 64,
		WorkingSet: 2, Reuse: 0.8, WantCircuit: true,
	}
	var pts []point
	for i, count := range append(staticCounts, transientCounts...) {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.MaxMisroutes = 3 // generous budget: MB-m's fault resilience
		seed := p.Seed + uint64(i)*17
		if i < len(staticCounts) {
			pts = append(pts, point{cfg: cfg, w: w, faults: count, faultSeed: seed})
			continue
		}
		// Transient regime: the same channel budget, but failing mid-run and
		// repairing, with the retry/backoff recovery armed.
		cfg.FaultSchedule = wave.FaultScheduleConfig{
			Count: count, Start: p.Warmup + p.Measure/10,
			Spacing: 40, Repair: 350, Seed: seed,
		}
		cfg.ProbeRetryLimit = 3
		cfg.RetryBackoffCycles = 32
		pts = append(pts, point{cfg: cfg, w: w})
	}
	outs, err := sweep(ctx, "e8", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("regime", "faulty-channels", "probe-success", "circuit-frac", "latency", "retries", "fallback-frac")
	for i, o := range outs {
		regime, count := "static", pts[i].faults
		if i >= len(staticCounts) {
			regime, count = "transient", pts[i].cfg.FaultSchedule.Count
		}
		st := o.st
		fbFrac := ratio(st.Protocol.FallbackWormhole, st.WHMsgsDelivered+st.CircuitMsgsDelivered)
		tb.AddRow(regime, count, probeSuccess(o.res.Counters), o.res.CircuitFraction, o.res.AvgLatency, st.Protocol.SetupRetries, fbFrac)
	}
	return &Report{
		ID:    "E8",
		Title: "Wave-channel faults, static and transient: MB-3 probe resilience, retry/backoff recovery and graceful wormhole fallback",
		Table: tb,
		Notes: []string{
			"Expected shape: probe success degrades gracefully with faults (backtracking routes",
			"around them); delivery never fails because phase 3 falls back to wormhole.",
			"Transient rows fail channels mid-run (spacing 40, repair 350) with a 3-try linear",
			"backoff armed; the retries column counts how often it actually fired.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E9 — CLRP phase ablations (paper section 3.1 simplifications).

// E9Ablation regenerates the protocol-variant comparison.
func E9Ablation(ctx context.Context, p Params) (*Report, error) {
	variants := []struct {
		name               string
		forceFirst, single bool
	}{
		{"3-phase (paper default)", false, false},
		{"force-first (skip phase 1)", true, false},
		{"single-switch phase 2", false, true},
	}
	var pts []point
	for _, v := range variants {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.CacheCapacity = 3
		cfg.ForceFirst = v.forceFirst
		cfg.SinglePhase2Switch = v.single
		pts = append(pts, point{cfg: cfg, w: wave.Workload{
			Pattern: "uniform", Load: 0.10, FixedLength: 64,
			WorkingSet: 6, Reuse: 0.8, WantCircuit: true,
		}})
	}
	outs, err := sweep(ctx, "e9", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("variant", "latency", "avg-setup", "phase2-entries", "phase3-fallbacks")
	for i, v := range variants {
		o := outs[i]
		tb.AddRow(v.name, o.res.AvgLatency, o.res.AvgSetupCycles, o.st.Protocol.Phase2Entered, o.st.Protocol.Phase3Entered)
	}
	return &Report{
		ID:    "E9",
		Title: "CLRP simplifications (section 3.1): full 3-phase vs force-first vs single-switch phase 2",
		Table: tb,
		Notes: []string{
			"The paper: 'The optimal protocol depends on the number of physical switches per node,",
			"and on the applications.' Force-first trades polite phase-1 searching for faster,",
			"more destructive setup; single-switch phase 2 gives up circuits sooner (more phase 3).",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E10 — wave clock multiplier sensitivity (the Spice 4x claim).

// E10ClockMult regenerates the clock-multiplier sweep.
func E10ClockMult(ctx context.Context, p Params) (*Report, error) {
	mults := []float64{1, 2, 3, 4}
	w := wave.Workload{
		Pattern: "uniform", Load: 0.05, FixedLength: 256,
		WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
	}
	cfg := baseConfig(p)
	cfg.Protocol = "wormhole"
	pts := []point{{cfg: cfg, w: w}}
	for _, m := range mults {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = 1
		cfg.WaveClockMult = m
		pts = append(pts, point{cfg: cfg, w: w})
	}
	outs, err := sweep(ctx, "e10", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("clock-mult", "clrp-lat", "clrp-thr", "wormhole-lat", "gain")
	wh := outs[0].res.AvgLatency
	for i, m := range mults {
		res := outs[i+1].res
		tb.AddRow(m, res.AvgLatency, res.Throughput, wh, wh/res.AvgLatency)
	}
	return &Report{
		ID:    "E10",
		Title: "Wave clock multiplier (Spice claim: up to 4x) vs end-to-end gain (256-flit messages)",
		Table: tb,
		Notes: []string{
			"Expected shape: gain grows with the multiplier; even at 1x, circuits help under",
			"reuse by eliminating per-hop routing and contention.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E11 — end-to-end window size: why the paper demands deep delivery buffers.

// E11Window regenerates the window-size sweep.
func E11Window(ctx context.Context, p Params) (*Report, error) {
	windows := []int{0, 64, 32, 16, 8, 4} // 0 = unbounded (deep buffers)
	var pts []point
	for _, win := range windows {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = 1
		cfg.WindowFlits = win
		pts = append(pts, point{cfg: cfg, w: wave.Workload{
			Pattern: "uniform", Load: 0.05, FixedLength: 256,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}})
	}
	outs, err := sweep(ctx, "e11", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("window(flits)", "latency", "throughput")
	for i, win := range windows {
		label := fmt.Sprint(win)
		if win == 0 {
			label = "unbounded"
		}
		tb.AddRow(label, outs[i].res.AvgLatency, outs[i].res.Throughput)
	}
	return &Report{
		ID:    "E11",
		Title: "End-to-end window vs circuit performance (256-flit messages, k=1, 4x clock)",
		Table: tb,
		Notes: []string{
			"Paper section 2: the windowing protocol 'requires deep delivery buffers to prevent",
			"buffer overflow while acknowledgments are transmitted'. Expected shape: once the",
			"window drops below the bandwidth-delay product (rate x round trip), sustained rate",
			"is window-limited and latency climbs steeply — quantifying why buffers must be deep.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E12 — topology comparison at equal node count (the companion-paper question
// "Optimal Topology for Distributed Shared-Memory Multiprocessors: Hypercubes
// Again?").

// E12Topology regenerates the topology comparison.
func E12Topology(ctx context.Context, p Params) (*Report, error) {
	n := p.Radix * p.Radix
	topos := []wave.TopologyConfig{
		{Kind: "torus", Radix: []int{p.Radix, p.Radix}},
		{Kind: "mesh", Radix: []int{p.Radix, p.Radix}},
	}
	names := []string{"2-D torus", "2-D mesh"}
	// Add a 3-D torus and a hypercube when the node count allows it.
	if c := cubeRoot(n); c >= 2 && c*c*c == n {
		topos = append(topos, wave.TopologyConfig{Kind: "torus", Radix: []int{c, c, c}})
		names = append(names, "3-D torus")
	}
	if d := log2(n); d > 0 {
		topos = append(topos, wave.TopologyConfig{Kind: "hypercube", Dims: d})
		names = append(names, fmt.Sprintf("%d-hypercube", d))
	}
	var pts []point
	for _, topo := range topos {
		for _, proto := range []string{"wormhole", "clrp"} {
			cfg := baseConfig(p)
			cfg.Topology = topo
			if topo.Kind == "mesh" || topo.Kind == "hypercube" {
				cfg.NumVCs = 2 // Duato on a mesh needs only 1 escape VC
			}
			cfg.Protocol = proto
			pts = append(pts, point{cfg: cfg, w: wave.Workload{
				Pattern: "uniform", Load: 0.10, FixedLength: 64,
				WorkingSet: 3, Reuse: 0.8, WantCircuit: true,
			}})
		}
	}
	outs, err := sweep(ctx, "e12", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("topology", "wormhole-lat", "clrp-lat", "clrp-thr", "clrp-gain")
	for i, name := range names {
		wh, cl := outs[2*i].res, outs[2*i+1].res
		tb.AddRow(name, wh.AvgLatency, cl.AvgLatency, cl.Throughput, wh.AvgLatency/cl.AvgLatency)
	}
	return &Report{
		ID:    "E12",
		Title: fmt.Sprintf("Topology comparison at %d nodes (uniform, 64-flit, 80%% reuse)", n),
		Table: tb,
		Notes: []string{
			"Extension following the authors' companion work ('Hypercubes Again?'): higher-",
			"dimensional networks shorten paths (lower base latency) and give probes more",
			"alternative channels, at the pin cost the paper's multi-chip argument addresses.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E13 — closed-loop DSM round trips (self-throttling request-reply load, the
// paper's DSM motivation in its natural traffic model).

// E13ClosedLoop regenerates the closed-loop round-trip comparison.
func E13ClosedLoop(ctx context.Context, p Params) (*Report, error) {
	outstanding := []int{1, 2, 4, 8}
	requests := max(int(p.Measure/200), 10)
	var pts []point
	for _, o := range outstanding {
		for _, proto := range []string{"wormhole", "clrp"} {
			cfg := baseConfig(p)
			cfg.Protocol = proto
			pts = append(pts, point{cfg: cfg, closed: &wave.ClosedWorkload{
				Pattern: "near", ReqFlits: 4, ReplyFlits: 64,
				Outstanding: o, Requests: requests,
				WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
			}})
		}
	}
	outs, err := sweep(ctx, "e13", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("outstanding", "wh-rtt", "wh-rate(m)", "clrp-rtt", "clrp-rate(m)", "rtt-gain")
	for i, o := range outstanding {
		wh, cl := outs[2*i].closed, outs[2*i+1].closed
		tb.AddRow(o, wh.AvgRoundTrip, wh.Rate*1000, cl.AvgRoundTrip, cl.Rate*1000, wh.AvgRoundTrip/cl.AvgRoundTrip)
	}
	return &Report{
		ID:    "E13",
		Title: "Closed-loop DSM round trips (4-flit requests, 64-flit replies, 90% home locality); rate in req/node/kcycle",
		Table: tb,
		Notes: []string{
			"Extension: the paper motivates wave switching with DSM latency; closed-loop load is",
			"the DSM-natural model (processors stall on outstanding accesses). Expected shape:",
			"CLRP shortens round trips at every MSHR count; rate rises with outstanding requests.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E14 — hybrid CLRP length threshold (future-work policy: per-message
// switching-technique selection without compiler support).

// E14Hybrid regenerates the threshold sweep.
func E14Hybrid(ctx context.Context, p Params) (*Report, error) {
	thresholds := []int{0, 8, 16, 32, 64, 1 << 30}
	var pts []point
	for _, th := range thresholds {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.MinCircuitFlits = th
		pts = append(pts, point{cfg: cfg, w: wave.Workload{
			Pattern: "near", Load: 0.10,
			BimodalShort: 4, BimodalLong: 128, BimodalPLong: 0.3,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}})
	}
	outs, err := sweep(ctx, "e14", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("min-circuit-flits", "latency", "circuit-frac")
	for i, th := range thresholds {
		label := fmt.Sprint(th)
		switch th {
		case 0:
			label = "0 (plain CLRP)"
		case 1 << 30:
			label = "inf (pure wormhole)"
		}
		tb.AddRow(label, outs[i].res.AvgLatency, outs[i].res.CircuitFraction)
	}
	return &Report{
		ID:    "E14",
		Title: "Hybrid CLRP: minimum message length for circuit use (bimodal 4/128-flit traffic)",
		Table: tb,
		Notes: []string{
			"Extension answering the paper's CARP-vs-CLRP discussion: 'the CARP protocol does not",
			"establish circuits for individual short messages'. A length threshold gives plain",
			"CLRP the same selectivity without compiler support; the sweet spot sits between the",
			"bimodal modes, beating both plain CLRP and pure wormhole.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E15 — router complexity vs adaptivity (the paper's section 1 caveat that
// "virtual channels and adaptive routing make the router more complex,
// increasing node delay", quantified via Chien's cost model [4]).

// E15RouterCost regenerates the router-cost trade-off table.
func E15RouterCost(ctx context.Context, p Params) (*Report, error) {
	configs := []struct {
		name    string
		routing string
		vcs     int
		rd      int
	}{
		{"dor w=2, 1-cycle router", "dor", 2, 0},
		{"duato w=3, 1-cycle router", "duato", 3, 0},
		{"duato w=3, +1 cycle node delay", "duato", 3, 1},
		{"duato w=3, +2 cycle node delay", "duato", 3, 2},
	}
	loads := []float64{0.05, 0.20, 0.35}
	var pts []point
	for _, c := range configs {
		for _, l := range loads {
			cfg := baseConfig(p)
			cfg.Protocol = "wormhole" // isolate the wormhole design space
			cfg.Routing = c.routing
			cfg.NumVCs = c.vcs
			cfg.RouteDelay = c.rd
			pts = append(pts, point{cfg: cfg, w: wave.Workload{Pattern: "uniform", Load: l, FixedLength: 16}})
		}
	}
	outs, err := sweep(ctx, "e15", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("router", "lat@0.05", "lat@0.20", "lat@0.35")
	for i, c := range configs {
		tb.AddRow(c.name, outs[3*i].res.AvgLatency, outs[3*i+1].res.AvgLatency, outs[3*i+2].res.AvgLatency)
	}
	return &Report{
		ID:    "E15",
		Title: "Router complexity vs adaptivity (wormhole only, 16-flit uniform traffic)",
		Table: tb,
		Notes: []string{
			"The paper (section 1, citing Chien's cost model): adaptive routing and virtual",
			"channels raise node delay. Expected shape: at low load the simple DOR router wins",
			"on zero-load latency; at high load adaptivity wins despite extra node delay — until",
			"the delay grows large enough to eat the benefit. Wave switching sidesteps the",
			"trade-off entirely by moving bulk traffic onto routing-free circuits.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E16 — deadlock avoidance vs deadlock recovery (the competing school in the
// paper's related work: Disha / software-based recovery / compressionless
// routing). Avoidance pays virtual channels; recovery pays aborts.

// E16Recovery regenerates the avoidance-vs-recovery table.
func E16Recovery(ctx context.Context, p Params) (*Report, error) {
	configs := []struct {
		name    string
		routing string
		vcs     int
		depth   int
		timeout int64
	}{
		// Equal total buffering per physical channel (4 flits).
		{"avoidance: dateline DOR, 2 VC x 2", "dor", 2, 2, 0},
		{"recovery: plain DOR, 1 VC x 4, T=64", "dor-nodateline", 1, 4, 64},
		{"recovery: plain DOR, 1 VC x 4, T=256", "dor-nodateline", 1, 4, 256},
	}
	loads := []float64{0.05, 0.15, 0.25}
	var pts []point
	for _, c := range configs {
		for _, l := range loads {
			cfg := baseConfig(p)
			cfg.Protocol = "wormhole"
			cfg.Routing = c.routing
			cfg.NumVCs = c.vcs
			cfg.BufDepth = c.depth
			cfg.RecoveryTimeout = c.timeout
			pts = append(pts, point{cfg: cfg, w: wave.Workload{Pattern: "uniform", Load: l, FixedLength: 16}})
		}
	}
	outs, err := sweep(ctx, "e16", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("scheme", "lat@0.05", "lat@0.15", "lat@0.25", "aborts@0.25")
	for i, c := range configs {
		tb.AddRow(c.name, outs[3*i].res.AvgLatency, outs[3*i+1].res.AvgLatency, outs[3*i+2].res.AvgLatency, outs[3*i+2].res.RecoveryAborts)
	}
	return &Report{
		ID:    "E16",
		Title: "Deadlock avoidance (dateline VCs) vs recovery (abort-and-retry), equal buffering, 16-flit uniform",
		Table: tb,
		Notes: []string{
			"Extension contrasting the related work's recovery school with the paper's avoidance",
			"assumption. Expected shape: recovery matches or beats avoidance at low load (deeper",
			"buffers, rare deadlocks); as load rises deadlocks form and aborts churn, while the",
			"dateline network stays stable. Short timeouts abort eagerly (more churn); long",
			"timeouts let blocked messages linger.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E17 — circuit cache capacity (how many Figure 5 register sets to build).

// E17CacheCapacity regenerates the cache-capacity sweep.
func E17CacheCapacity(ctx context.Context, p Params) (*Report, error) {
	caps := []int{1, 2, 4, 8, 16}
	var pts []point
	for _, c := range caps {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.CacheCapacity = c
		pts = append(pts, point{cfg: cfg, w: wave.Workload{
			Pattern: "near", Load: 0.08, FixedLength: 32,
			WorkingSet: 6, Reuse: 0.9, WantCircuit: true,
		}})
	}
	outs, err := sweep(ctx, "e17", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("cache-capacity", "latency", "hit-rate", "evictions")
	for i, c := range caps {
		o := outs[i]
		tb.AddRow(c, o.res.AvgLatency, o.res.HitRate, o.st.Cache.Evictions)
	}
	return &Report{
		ID:    "E17",
		Title: "Circuit Cache capacity (6-entry working sets, 90% reuse): register sets vs hit rate",
		Table: tb,
		Notes: []string{
			"The Figure 5 registers are per-node hardware; this sweep sizes them. Expected",
			"shape: hit rate climbs until capacity covers the working set, then saturates —",
			"capacity beyond the channel budget buys nothing (channels, not registers, bind).",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E18 — the initial-switch spreading heuristic (paper: "It is convenient that
// neighboring nodes try to use different initial switches").

// E18SwitchSpread regenerates the heuristic ablation.
func E18SwitchSpread(ctx context.Context, p Params) (*Report, error) {
	variants := []struct {
		name   string
		spread bool
	}{
		{"spread: (x+y) mod k (paper)", true},
		{"no spread: always S1", false},
	}
	var pts []point
	for _, v := range variants {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = 3 // the heuristic only matters with several switches
		cfg.NoSwitchSpread = !v.spread
		// Long messages hold circuits for extended periods, so neighbouring
		// probes collide on busy channels — the case the heuristic targets.
		pts = append(pts, point{cfg: cfg, w: wave.Workload{
			Pattern: "uniform", Load: 0.15, FixedLength: 256,
			WorkingSet: 3, Reuse: 0.85, WantCircuit: true,
		}})
	}
	outs, err := sweep(ctx, "e18", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("initial switch", "latency", "avg-setup", "backtracks/probe")
	for i, v := range variants {
		res := outs[i].res
		tb.AddRow(v.name, res.AvgLatency, res.AvgSetupCycles, ratio(res.Counters.Backtracks, res.Counters.Launched))
	}
	return &Report{
		ID:    "E18",
		Title: "Initial-switch spreading heuristic (k=3): probe collision ablation",
		Table: tb,
		Notes: []string{
			"The paper: 'It is convenient that neighboring nodes try to use different initial",
			"switches. For example, in a 2D-mesh, node (x,y) can first try switch 1+(x+y) mod k.'",
			"Expected shape: without spreading, every probe fights over switch S1's channels —",
			"more backtracking and slower setup; spreading spreads the load across S1..Sk.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E19 — endpoint message buffers: CLRP's guessed allocation vs CARP's
// known-message-set allocation (paper section 2's buffer discussion).

// E19EndpointBuffers regenerates the buffer-model comparison.
func E19EndpointBuffers(ctx context.Context, p Params) (*Report, error) {
	configs := []struct {
		name    string
		proto   string
		initial int
	}{
		{"clrp, guess 16 flits", "clrp", 16},
		{"clrp, guess 64 flits", "clrp", 64},
		{"clrp, guess 256 flits", "clrp", 256},
		{"carp (longest known upfront)", "carp", 16},
	}
	var pts []point
	for _, c := range configs {
		cfg := baseConfig(p)
		cfg.Protocol = c.proto
		cfg.InitialBufFlits = c.initial
		cfg.ReallocPenalty = 40 // a kernel round trip to grow both ends
		// Heavy-tailed lengths: mostly 16-flit, occasionally 256-flit.
		pt := point{cfg: cfg, w: wave.Workload{
			Pattern: "neighbor", Load: 0.08,
			BimodalShort: 16, BimodalLong: 256, BimodalPLong: 0.1,
			WorkingSet: 1, Reuse: 0.95, WantCircuit: true,
		}}
		if c.proto == "carp" {
			pt.open = func(s *wave.Simulator) {
				for n := 0; n < s.Nodes(); n++ {
					for _, nb := range s.Neighbors(n) {
						s.OpenCircuit(n, nb)
					}
				}
			}
		}
		pts = append(pts, pt)
	}
	outs, err := sweep(ctx, "e19", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("buffers", "latency", "reallocs")
	for i, c := range configs {
		tb.AddRow(c.name, outs[i].res.AvgLatency, outs[i].res.Reallocs)
	}
	return &Report{
		ID:    "E19",
		Title: "Endpoint message buffers (heavy-tailed 16/256-flit traffic, 40-cycle realloc)",
		Table: tb,
		Notes: []string{
			"Paper section 2: CLRP allocates 'a reasonably large buffer' at establishment and",
			"may re-allocate for longer messages; CARP's compiler knows the message set and",
			"sizes buffers once. Expected shape: small CLRP guesses pay repeated realloc",
			"penalties on the heavy tail; generous guesses waste memory but match CARP's",
			"latency. This is the paper's concrete CLRP-vs-CARP efficiency argument, measured.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E20 — the software messaging layer (paper section 1's motivation): who
// actually benefits from faster network hardware, and how circuits cut the
// software bill itself.

// E20SoftwareLayer regenerates the end-to-end (software + hardware) cost
// comparison across system models.
func E20SoftwareLayer(ctx context.Context, p Params) (*Report, error) {
	const msgLen = 128
	// Measure hardware latencies once per substrate.
	wh, circuit := baseConfig(p), baseConfig(p)
	wh.Protocol = "wormhole"
	circuit.Protocol = "clrp"
	outs, err := sweep(ctx, "e20", p, []point{
		{cfg: wh, w: wave.Workload{Pattern: "uniform", Load: 0.05, FixedLength: msgLen}},
		{cfg: circuit, w: wave.Workload{
			Pattern: "uniform", Load: 0.05, FixedLength: msgLen,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}},
	})
	if err != nil {
		return nil, err
	}
	whLat, circLat := outs[0].res.AvgLatency, outs[1].res.AvgLatency
	layers := []msglayer.Costs{msglayer.Multicomputer(), msglayer.ActiveMessages(), msglayer.DSM()}
	tb := stats.NewTable("messaging layer", "wh-total", "sw-share", "circuit-total", "sw-share", "end-to-end gain")
	for _, c := range layers {
		whTotal := float64(c.Overhead(msgLen, false)) + whLat
		circTotal := float64(c.Overhead(msgLen, true)) + circLat
		tb.AddRow(c.Name,
			whTotal, c.SoftwareShare(msgLen, false, whLat),
			circTotal, c.SoftwareShare(msgLen, true, circLat),
			whTotal/circTotal)
	}
	return &Report{
		ID:    "E20",
		Title: fmt.Sprintf("Software messaging layer + measured hardware (128-flit messages; hw: wh=%.0f, circuit=%.0f cycles)", whLat, circLat),
		Table: tb,
		Notes: []string{
			"Paper section 1: software overhead is 50-70% of messaging cost, so 'reducing the",
			"network hardware latency has a minimal impact' for multicomputers — unless circuits",
			"also cut the software bill (pre-allocated reusable buffers, hardware in-order",
			"delivery, no packetization). Expected shape: DSM (zero software) sees the full",
			"hardware gain; the classic multicomputer stack sees little from hardware alone but",
			"a solid end-to-end win once circuits remove the per-message buffer/packet work.",
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E21 — the wormhole routing-function family: deterministic vs turn-model
// partially adaptive vs fully adaptive, all statically verified deadlock-free
// by the CDG checker.

// E21RoutingFamily regenerates the routing comparison on a mesh.
func E21RoutingFamily(ctx context.Context, p Params) (*Report, error) {
	configs := []struct {
		name, fn string
		vcs      int
	}{
		{"dor (deterministic)", "dor", 2},
		{"west-first (turn model)", "westfirst", 2},
		{"negative-first (turn model)", "negativefirst", 2},
		{"duato (fully adaptive)", "duato", 2},
	}
	loads := []float64{0.05, 0.15, 0.25}
	var pts []point
	for _, c := range configs {
		for _, l := range loads {
			cfg := baseConfig(p)
			cfg.Topology = wave.TopologyConfig{Kind: "mesh", Radix: []int{p.Radix, p.Radix}}
			cfg.Protocol = "wormhole"
			cfg.Routing = c.fn
			cfg.NumVCs = c.vcs
			// Transpose concentrates traffic: adaptivity earns its keep.
			pts = append(pts, point{cfg: cfg, w: wave.Workload{Pattern: "transpose", Load: l, FixedLength: 16}})
		}
	}
	outs, err := sweep(ctx, "e21", p, pts)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("routing", "lat@0.05", "lat@0.15", "lat@0.25")
	for i, c := range configs {
		tb.AddRow(c.name, outs[3*i].res.AvgLatency, outs[3*i+1].res.AvgLatency, outs[3*i+2].res.AvgLatency)
	}
	return &Report{
		ID:    "E21",
		Title: "Wormhole routing family under transpose traffic (mesh, 2 VCs each)",
		Table: tb,
		Notes: []string{
			"The paper allows 'either a deterministic or an adaptive routing algorithm' under",
			"wave switching; this sweep spans the spectrum. Expected shape: under the transpose",
			"permutation deterministic DOR saturates first; the turn models buy partial relief;",
			"Duato's fully adaptive routing lasts the longest. All four are statically verified",
			"deadlock-free by the channel dependency graph checker.",
		},
	}, nil
}

func cubeRoot(n int) int {
	for c := 1; c*c*c <= n; c++ {
		if c*c*c == n {
			return c
		}
	}
	return 0
}

func log2(n int) int {
	d := 0
	for v := 1; v < n; v <<= 1 {
		d++
	}
	if 1<<d != n {
		return 0
	}
	return d
}

// Sorted returns the registry IDs.
func Sorted() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
