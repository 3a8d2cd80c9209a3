// Package experiments regenerates every table and figure of the evaluation
// matrix in DESIGN.md (E1–E20). Each experiment returns a Report holding a
// paper-style text table plus commentary on the expected shape; cmd/waveexp
// prints them and EXPERIMENTS.md records paper-vs-measured.
//
// Independent sweep points run concurrently on a bounded worker pool (the
// simulator itself is single-threaded and deterministic; parallelism is
// across runs, so results are reproducible regardless of scheduling).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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

	// OnPoint, when non-nil, is called after each completed sweep point
	// with (done, total) — coarse progress for long sweeps (waved streams
	// it to clients). It runs on worker goroutines, so it must be safe for
	// concurrent use, and it only observes: results are identical with or
	// without it.
	OnPoint func(done, total int) `json:"-"`
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

// runOne builds a simulator and runs the workload under ctx.
func runOne(ctx context.Context, cfg wave.Config, w wave.Workload, p Params) (*wave.Result, error) {
	s, err := wave.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
}

// parallel runs jobs 0..n-1 across a bounded pool and returns the first
// error. Workers write into caller-provided slots, so output order is
// deterministic. Cancelling ctx stops dispatch between sweep points (and
// the context-aware run loops stop in-flight points between cycles);
// p.OnPoint, when set, observes completed-point progress.
func parallel(ctx context.Context, p Params, n int, job func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var completed atomic.Int64
	idx := make(chan int)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = job(i)
				if p.OnPoint != nil {
					p.OnPoint(int(completed.Add(1)), n)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// E1 — latency vs message length, wormhole vs wave switching (no reuse and
// with reuse). The paper's headline: wave switching wins by a factor > 3 for
// messages >= 128 flits even without circuit reuse (k=1 full-width config).

// E1MessageLength regenerates the message-length sweep.
func E1MessageLength(ctx context.Context, p Params) (*Report, error) {
	lengths := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	type row struct {
		wh, pcs, clrp float64
	}
	rows := make([]row, len(lengths))
	err := parallel(ctx, p, len(lengths)*3, func(i int) error {
		li, which := i/3, i%3
		cfg := baseConfig(p)
		cfg.NumSwitches = 1 // full-width wave channel
		cfg.MaxMisroutes = 0
		w := wave.Workload{Pattern: "uniform", Load: 0.02, FixedLength: lengths[li], WantCircuit: true}
		switch which {
		case 0:
			cfg.Protocol = "wormhole"
		case 1:
			cfg.Protocol = "pcs" // circuit per message: no reuse
		case 2:
			cfg.Protocol = "clrp"
			w.WorkingSet = 2
			w.Reuse = 0.9
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e1 L=%d %s: %w", lengths[li], cfg.Protocol, err)
		}
		switch which {
		case 0:
			rows[li].wh = res.AvgLatency
		case 1:
			rows[li].pcs = res.AvgLatency
		case 2:
			rows[li].clrp = res.AvgLatency
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("len(flits)", "wormhole", "wave-noreuse", "wave-reuse(clrp)", "gain-noreuse", "gain-reuse")
	for i, l := range lengths {
		r := rows[i]
		tb.AddRow(l, r.wh, r.pcs, r.clrp, r.wh/r.pcs, r.wh/r.clrp)
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

// ---------------------------------------------------------------------------
// E2 — latency and accepted throughput vs applied load.

// E2LoadSweep regenerates the load sweep for all protocols.
func E2LoadSweep(ctx context.Context, p Params) (*Report, error) {
	loads := []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30}
	protos := []string{"wormhole", "clrp", "carp"}
	type cell struct{ lat, thr float64 }
	grid := make([][]cell, len(loads))
	for i := range grid {
		grid[i] = make([]cell, len(protos))
	}
	err := parallel(ctx, p, len(loads)*len(protos), func(i int) error {
		li, pi := i/len(protos), i%len(protos)
		cfg := baseConfig(p)
		cfg.Protocol = protos[pi]
		w := wave.Workload{
			Pattern: "uniform", Load: loads[li], FixedLength: 64,
			WorkingSet: 4, Reuse: 0.8, WantCircuit: true,
		}
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		if protos[pi] == "carp" {
			// The compiler opens circuits for each node's working set lazily:
			// CARP sends to unopened destinations use wormhole; to keep the
			// comparison fair the harness pre-opens the hot neighbours.
			for n := 0; n < s.Nodes(); n++ {
				s.OpenCircuit(n, (n+1)%s.Nodes())
				s.OpenCircuit(n, (n+5)%s.Nodes())
			}
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e2 load=%.2f %s: %w", loads[li], protos[pi], rerr)
		}
		grid[li][pi] = cell{lat: res.AvgLatency, thr: res.Throughput}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("load", "wh-lat", "wh-thr", "clrp-lat", "clrp-thr", "carp-lat", "carp-thr")
	for i, l := range loads {
		tb.AddRow(l, grid[i][0].lat, grid[i][0].thr, grid[i][1].lat, grid[i][1].thr, grid[i][2].lat, grid[i][2].thr)
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
	whLat := make([]float64, 1)
	clrpLat := make([]float64, len(reuses))
	hit := make([]float64, len(reuses))
	err := parallel(ctx, p, len(reuses)+1, func(i int) error {
		cfg := baseConfig(p)
		// Spatially mapped processes ("near"): circuits are short, so the
		// binding constraint is temporal reuse — the variable under test.
		w := wave.Workload{Pattern: "near", Load: 0.05, FixedLength: 16, WantCircuit: true}
		if i == len(reuses) {
			cfg.Protocol = "wormhole"
			res, err := runOne(ctx, cfg, w, p)
			if err != nil {
				return err
			}
			whLat[0] = res.AvgLatency
			return nil
		}
		cfg.Protocol = "clrp"
		if reuses[i] > 0 {
			w.WorkingSet = 2
			w.Reuse = reuses[i]
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e3 p=%.2f: %w", reuses[i], err)
		}
		clrpLat[i] = res.AvgLatency
		hit[i] = res.HitRate
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("reuse-p", "clrp-lat", "hit-rate", "wormhole-lat", "clrp/wh")
	for i, r := range reuses {
		tb.AddRow(r, clrpLat[i], hit[i], whLat[0], clrpLat[i]/whLat[0])
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
	type cell struct {
		lat, hit float64
	}
	grid := make([][]cell, len(policies))
	for i := range grid {
		grid[i] = make([]cell, len(setSizes))
	}
	err := parallel(ctx, p, len(policies)*len(setSizes), func(i int) error {
		pi, si := i/len(setSizes), i%len(setSizes)
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.CacheCapacity = 4 // pressure: working sets up to 4x capacity
		cfg.ReplacePolicy = policies[pi]
		// "near" keeps circuits short so cache capacity — not channel
		// availability — is the binding constraint the policies manage.
		w := wave.Workload{
			Pattern: "near", Load: 0.05, FixedLength: 32,
			WorkingSet: setSizes[si], Reuse: 0.9, RedrawPeriod: 0, WantCircuit: true,
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e4 %s set=%d: %w", policies[pi], setSizes[si], err)
		}
		grid[pi][si] = cell{lat: res.AvgLatency, hit: res.HitRate}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("policy", "set=4 hit", "set=4 lat", "set=8 hit", "set=8 lat", "set=16 hit", "set=16 lat")
	for i, pol := range policies {
		tb.AddRow(pol, grid[i][0].hit, grid[i][0].lat, grid[i][1].hit, grid[i][1].lat, grid[i][2].hit, grid[i][2].lat)
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
	type cell struct {
		success, setup, misPer float64
	}
	cells := make([]cell, len(ms))
	err := parallel(ctx, p, len(ms), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "pcs" // every message probes: maximal probe pressure
		cfg.MaxMisroutes = ms[i]
		cfg.NumSwitches = 1 // a single wave switch: probes collide constantly
		w := wave.Workload{Pattern: "uniform", Load: 0.15, FixedLength: 128, WantCircuit: true}
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e5 m=%d: %w", ms[i], rerr)
		}
		pc := res.Counters
		total := pc.Succeeded + pc.Failed
		if total > 0 {
			cells[i].success = float64(pc.Succeeded) / float64(total)
		}
		cells[i].setup = res.AvgSetupCycles
		if pc.Succeeded > 0 {
			cells[i].misPer = float64(pc.Misroutes) / float64(pc.Launched)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("m", "probe-success", "avg-setup-cycles", "misroutes/probe")
	for i, m := range ms {
		tb.AddRow(m, cells[i].success, cells[i].setup, cells[i].misPer)
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
	type cell struct {
		lat, thr, circ float64
	}
	cells := make([]cell, len(ks))
	err := parallel(ctx, p, len(ks), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = ks[i]
		// Two workloads probe the two sides of the trade-off: short messages
		// with a wide working set stress circuit *availability* (k helps);
		// long messages stress per-circuit *bandwidth* (k hurts).
		short := wave.Workload{
			Pattern: "near", Load: 0.08, FixedLength: 16,
			WorkingSet: 6, Reuse: 0.9, WantCircuit: true,
		}
		long := wave.Workload{
			Pattern: "near", Load: 0.08, FixedLength: 256,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}
		resS, err := runOne(ctx, cfg, short, p)
		if err != nil {
			return fmt.Errorf("e6 k=%d short: %w", ks[i], err)
		}
		resL, err := runOne(ctx, cfg, long, p)
		if err != nil {
			return fmt.Errorf("e6 k=%d long: %w", ks[i], err)
		}
		cells[i] = cell{lat: resS.AvgLatency, thr: resL.AvgLatency, circ: resS.HitRate}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("k", "short-msg-lat", "short-hit-rate", "long-msg-lat", "per-circuit-rate")
	for i, k := range ks {
		tb.AddRow(k, cells[i].lat, cells[i].circ, cells[i].thr, 4.0/float64(k))
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
	type cell struct {
		delivered int64
		maxLat    float64
		forces    int64
		releases  int64
	}
	cells := make([]cell, len(protos))
	err := parallel(ctx, p, len(protos), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = protos[i]
		cfg.CacheCapacity = 2 // maximal replacement churn
		w := wave.Workload{
			Pattern: "hotspot", Load: 0.25, FixedLength: 32,
			WorkingSet: 4, Reuse: 0.7, WantCircuit: true,
		}
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e7 %s: %w (deadlock/livelock?)", protos[i], rerr)
		}
		pc := res.Counters
		cells[i] = cell{delivered: res.Delivered, maxLat: res.MaxLatency, forces: pc.ForceWaits, releases: pc.ReleasesSent}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("protocol", "delivered", "stuck", "max-latency", "force-waits", "releases")
	for i, pr := range protos {
		tb.AddRow(pr, cells[i].delivered, 0, cells[i].maxLat, cells[i].forces, cells[i].releases)
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
	type cell struct {
		regime                 string
		faults                 int
		circFrac, lat, success float64
		retries                int64
		fbFrac                 float64
	}
	cells := make([]cell, len(staticCounts)+len(transientCounts))
	w := wave.Workload{
		Pattern: "near", Load: 0.05, FixedLength: 64,
		WorkingSet: 2, Reuse: 0.8, WantCircuit: true,
	}
	err := parallel(ctx, p, len(cells), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.MaxMisroutes = 3 // generous budget: MB-m's fault resilience
		regime, count := "static", 0
		if i < len(staticCounts) {
			count = staticCounts[i]
		} else {
			// Transient regime: the same channel budget, but failing mid-run
			// and repairing, with the retry/backoff recovery armed.
			regime, count = "transient", transientCounts[i-len(staticCounts)]
			cfg.FaultSchedule = wave.FaultScheduleConfig{
				Count: count, Start: p.Warmup + p.Measure/10,
				Spacing: 40, Repair: 350, Seed: p.Seed + uint64(i)*17,
			}
			cfg.ProbeRetryLimit = 3
			cfg.RetryBackoffCycles = 32
		}
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		if regime == "static" {
			if ferr := s.InjectFaults(count, p.Seed+uint64(i)*17); ferr != nil {
				return ferr
			}
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e8 %s faults=%d: %w", regime, count, rerr)
		}
		pc := res.Counters
		total := pc.Succeeded + pc.Failed
		success := 0.0
		if total > 0 {
			success = float64(pc.Succeeded) / float64(total)
		}
		st := s.Stats()
		fbFrac := 0.0
		if delivered := st.WHMsgsDelivered + st.CircuitMsgsDelivered; delivered > 0 {
			fbFrac = float64(st.Protocol.FallbackWormhole) / float64(delivered)
		}
		cells[i] = cell{
			regime: regime, faults: count,
			circFrac: res.CircuitFraction, lat: res.AvgLatency, success: success,
			retries: st.Protocol.SetupRetries, fbFrac: fbFrac,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("regime", "faulty-channels", "probe-success", "circuit-frac", "latency", "retries", "fallback-frac")
	for _, c := range cells {
		tb.AddRow(c.regime, c.faults, c.success, c.circFrac, c.lat, c.retries, c.fbFrac)
	}
	return &Report{
		ID:    "E8",
		Title: "Wave-channel faults, static and transient: MB-3 probe resilience, retry/backoff recovery and graceful wormhole fallback",
		Table: tb,
		Notes: []string{
			"Expected shape: probe success degrades gracefully with faults (backtracking routes",
			"around them); delivery never fails because phase 3 falls back to wormhole.",
			"Transient rows fail channels mid-run (spacing 40, repair 350) with a 3-try linear",
			"backoff armed: fallback-frac stays near zero because retries outlive the repairs.",
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
	type cell struct {
		lat, setup float64
		p2, p3     int64
	}
	cells := make([]cell, len(variants))
	err := parallel(ctx, p, len(variants), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.CacheCapacity = 3
		cfg.ForceFirst = variants[i].forceFirst
		cfg.SinglePhase2Switch = variants[i].single
		w := wave.Workload{
			Pattern: "uniform", Load: 0.10, FixedLength: 64,
			WorkingSet: 6, Reuse: 0.8, WantCircuit: true,
		}
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e9 %s: %w", variants[i].name, rerr)
		}
		ctr := s.Counters()
		cells[i] = cell{lat: res.AvgLatency, setup: res.AvgSetupCycles, p2: ctr.Phase2Entered, p3: ctr.Phase3Entered}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("variant", "latency", "avg-setup", "phase2-entries", "phase3-fallbacks")
	for i, v := range variants {
		tb.AddRow(v.name, cells[i].lat, cells[i].setup, cells[i].p2, cells[i].p3)
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
	type cell struct {
		lat, thr, gain float64
	}
	cells := make([]cell, len(mults))
	whLat := make([]float64, 1)
	err := parallel(ctx, p, len(mults)+1, func(i int) error {
		cfg := baseConfig(p)
		w := wave.Workload{
			Pattern: "uniform", Load: 0.05, FixedLength: 256,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}
		if i == len(mults) {
			cfg.Protocol = "wormhole"
			res, err := runOne(ctx, cfg, w, p)
			if err != nil {
				return err
			}
			whLat[0] = res.AvgLatency
			return nil
		}
		cfg.Protocol = "clrp"
		cfg.NumSwitches = 1
		cfg.WaveClockMult = mults[i]
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e10 mult=%g: %w", mults[i], err)
		}
		cells[i] = cell{lat: res.AvgLatency, thr: res.Throughput}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("clock-mult", "clrp-lat", "clrp-thr", "wormhole-lat", "gain")
	for i, m := range mults {
		tb.AddRow(m, cells[i].lat, cells[i].thr, whLat[0], whLat[0]/cells[i].lat)
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
	type cell struct{ lat, thr float64 }
	cells := make([]cell, len(windows))
	err := parallel(ctx, p, len(windows), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = 1
		cfg.WindowFlits = windows[i]
		w := wave.Workload{
			Pattern: "uniform", Load: 0.05, FixedLength: 256,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e11 window=%d: %w", windows[i], err)
		}
		cells[i] = cell{lat: res.AvgLatency, thr: res.Throughput}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("window(flits)", "latency", "throughput")
	for i, w := range windows {
		label := fmt.Sprint(w)
		if w == 0 {
			label = "unbounded"
		}
		tb.AddRow(label, cells[i].lat, cells[i].thr)
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
	type cell struct{ whLat, clLat, thr float64 }
	cells := make([]cell, len(topos))
	err := parallel(ctx, p, len(topos)*2, func(i int) error {
		ti, which := i/2, i%2
		cfg := baseConfig(p)
		cfg.Topology = topos[ti]
		if topos[ti].Kind == "mesh" || topos[ti].Kind == "hypercube" {
			cfg.NumVCs = 2 // Duato on a mesh needs only 1 escape VC
		}
		w := wave.Workload{
			Pattern: "uniform", Load: 0.10, FixedLength: 64,
			WorkingSet: 3, Reuse: 0.8, WantCircuit: true,
		}
		if which == 0 {
			cfg.Protocol = "wormhole"
		} else {
			cfg.Protocol = "clrp"
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e12 %s %s: %w", names[ti], cfg.Protocol, err)
		}
		if which == 0 {
			cells[ti].whLat = res.AvgLatency
		} else {
			cells[ti].clLat = res.AvgLatency
			cells[ti].thr = res.Throughput
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("topology", "wormhole-lat", "clrp-lat", "clrp-thr", "clrp-gain")
	for i, name := range names {
		tb.AddRow(name, cells[i].whLat, cells[i].clLat, cells[i].thr, cells[i].whLat/cells[i].clLat)
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
	outs := []int{1, 2, 4, 8}
	protos := []string{"wormhole", "clrp"}
	type cell struct{ rtt, rate float64 }
	grid := make([][]cell, len(outs))
	for i := range grid {
		grid[i] = make([]cell, len(protos))
	}
	requests := int(p.Measure / 200)
	if requests < 10 {
		requests = 10
	}
	err := parallel(ctx, p, len(outs)*len(protos), func(i int) error {
		oi, pi := i/len(protos), i%len(protos)
		cfg := baseConfig(p)
		cfg.Protocol = protos[pi]
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		res, rerr := s.RunClosedLoopContext(ctx, wave.ClosedWorkload{
			Pattern: "near", ReqFlits: 4, ReplyFlits: 64,
			Outstanding: outs[oi], Requests: requests,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}, 20_000_000)
		if rerr != nil {
			return fmt.Errorf("e13 out=%d %s: %w", outs[oi], protos[pi], rerr)
		}
		grid[oi][pi] = cell{rtt: res.AvgRoundTrip, rate: res.Rate * 1000}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("outstanding", "wh-rtt", "wh-rate(m)", "clrp-rtt", "clrp-rate(m)", "rtt-gain")
	for i, o := range outs {
		tb.AddRow(o, grid[i][0].rtt, grid[i][0].rate, grid[i][1].rtt, grid[i][1].rate, grid[i][0].rtt/grid[i][1].rtt)
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
	type cell struct {
		lat, circ float64
	}
	cells := make([]cell, len(thresholds))
	err := parallel(ctx, p, len(thresholds), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.MinCircuitFlits = thresholds[i]
		w := wave.Workload{
			Pattern: "near", Load: 0.10,
			BimodalShort: 4, BimodalLong: 128, BimodalPLong: 0.3,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e14 threshold=%d: %w", thresholds[i], err)
		}
		cells[i] = cell{lat: res.AvgLatency, circ: res.CircuitFraction}
		return nil
	})
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
		tb.AddRow(label, cells[i].lat, cells[i].circ)
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
	type config struct {
		name    string
		routing string
		vcs     int
		rd      int
	}
	configs := []config{
		{"dor w=2, 1-cycle router", "dor", 2, 0},
		{"duato w=3, 1-cycle router", "duato", 3, 0},
		{"duato w=3, +1 cycle node delay", "duato", 3, 1},
		{"duato w=3, +2 cycle node delay", "duato", 3, 2},
	}
	loads := []float64{0.05, 0.20, 0.35}
	grid := make([][]float64, len(configs))
	for i := range grid {
		grid[i] = make([]float64, len(loads))
	}
	err := parallel(ctx, p, len(configs)*len(loads), func(i int) error {
		ci, li := i/len(loads), i%len(loads)
		cfg := baseConfig(p)
		cfg.Protocol = "wormhole" // isolate the wormhole design space
		cfg.Routing = configs[ci].routing
		cfg.NumVCs = configs[ci].vcs
		cfg.RouteDelay = configs[ci].rd
		w := wave.Workload{Pattern: "uniform", Load: loads[li], FixedLength: 16}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e15 %s load=%.2f: %w", configs[ci].name, loads[li], err)
		}
		grid[ci][li] = res.AvgLatency
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("router", "lat@0.05", "lat@0.20", "lat@0.35")
	for i, c := range configs {
		tb.AddRow(c.name, grid[i][0], grid[i][1], grid[i][2])
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
	type config struct {
		name    string
		routing string
		vcs     int
		depth   int
		timeout int64
	}
	configs := []config{
		// Equal total buffering per physical channel (4 flits).
		{"avoidance: dateline DOR, 2 VC x 2", "dor", 2, 2, 0},
		{"recovery: plain DOR, 1 VC x 4, T=64", "dor-nodateline", 1, 4, 64},
		{"recovery: plain DOR, 1 VC x 4, T=256", "dor-nodateline", 1, 4, 256},
	}
	loads := []float64{0.05, 0.15, 0.25}
	type cell struct {
		lat    float64
		aborts int64
	}
	grid := make([][]cell, len(configs))
	for i := range grid {
		grid[i] = make([]cell, len(loads))
	}
	err := parallel(ctx, p, len(configs)*len(loads), func(i int) error {
		ci, li := i/len(loads), i%len(loads)
		cfg := baseConfig(p)
		cfg.Protocol = "wormhole"
		cfg.Routing = configs[ci].routing
		cfg.NumVCs = configs[ci].vcs
		cfg.BufDepth = configs[ci].depth
		cfg.RecoveryTimeout = configs[ci].timeout
		w := wave.Workload{Pattern: "uniform", Load: loads[li], FixedLength: 16}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e16 %s load=%.2f: %w", configs[ci].name, loads[li], err)
		}
		grid[ci][li] = cell{lat: res.AvgLatency, aborts: res.RecoveryAborts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("scheme", "lat@0.05", "lat@0.15", "lat@0.25", "aborts@0.25")
	for i, c := range configs {
		tb.AddRow(c.name, grid[i][0].lat, grid[i][1].lat, grid[i][2].lat, grid[i][2].aborts)
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
	type cell struct {
		lat, hit float64
		evict    int64
	}
	cells := make([]cell, len(caps))
	err := parallel(ctx, p, len(caps), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.CacheCapacity = caps[i]
		w := wave.Workload{
			Pattern: "near", Load: 0.08, FixedLength: 32,
			WorkingSet: 6, Reuse: 0.9, WantCircuit: true,
		}
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e17 cap=%d: %w", caps[i], rerr)
		}
		cs := s.CacheStats()
		cells[i] = cell{lat: res.AvgLatency, hit: res.HitRate, evict: cs.Evictions}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("cache-capacity", "latency", "hit-rate", "evictions")
	for i, c := range caps {
		tb.AddRow(c, cells[i].lat, cells[i].hit, cells[i].evict)
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
	type cell struct {
		lat, setup, backs float64
	}
	cells := make([]cell, len(variants))
	err := parallel(ctx, p, len(variants), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		cfg.NumSwitches = 3 // the heuristic only matters with several switches
		cfg.NoSwitchSpread = !variants[i].spread
		// Long messages hold circuits for extended periods, so neighbouring
		// probes collide on busy channels — the case the heuristic targets.
		w := wave.Workload{
			Pattern: "uniform", Load: 0.15, FixedLength: 256,
			WorkingSet: 3, Reuse: 0.85, WantCircuit: true,
		}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e18 %s: %w", variants[i].name, err)
		}
		pc := res.Counters
		backs := 0.0
		if pc.Launched > 0 {
			backs = float64(pc.Backtracks) / float64(pc.Launched)
		}
		cells[i] = cell{lat: res.AvgLatency, setup: res.AvgSetupCycles, backs: backs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("initial switch", "latency", "avg-setup", "backtracks/probe")
	for i, v := range variants {
		tb.AddRow(v.name, cells[i].lat, cells[i].setup, cells[i].backs)
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
	type config struct {
		name    string
		proto   string
		initial int
	}
	configs := []config{
		{"clrp, guess 16 flits", "clrp", 16},
		{"clrp, guess 64 flits", "clrp", 64},
		{"clrp, guess 256 flits", "clrp", 256},
		{"carp (longest known upfront)", "carp", 16},
	}
	type cell struct {
		lat      float64
		reallocs int64
	}
	cells := make([]cell, len(configs))
	err := parallel(ctx, p, len(configs), func(i int) error {
		cfg := baseConfig(p)
		cfg.Protocol = configs[i].proto
		cfg.InitialBufFlits = configs[i].initial
		cfg.ReallocPenalty = 40 // a kernel round trip to grow both ends
		s, err := wave.New(cfg)
		if err != nil {
			return err
		}
		if configs[i].proto == "carp" {
			for n := 0; n < s.Nodes(); n++ {
				for _, nb := range s.Neighbors(n) {
					s.OpenCircuit(n, nb)
				}
			}
		}
		// Heavy-tailed lengths: mostly 16-flit, occasionally 256-flit.
		w := wave.Workload{
			Pattern: "neighbor", Load: 0.08,
			BimodalShort: 16, BimodalLong: 256, BimodalPLong: 0.1,
			WorkingSet: 1, Reuse: 0.95, WantCircuit: true,
		}
		res, rerr := s.RunLoadContext(ctx, w, p.Warmup, p.Measure)
		if rerr != nil {
			return fmt.Errorf("e19 %s: %w", configs[i].name, rerr)
		}
		cells[i] = cell{lat: res.AvgLatency, reallocs: res.Reallocs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("buffers", "latency", "reallocs")
	for i, c := range configs {
		tb.AddRow(c.name, cells[i].lat, cells[i].reallocs)
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
	type hw struct{ wh, circuit float64 }
	var lat hw
	{
		cfg := baseConfig(p)
		cfg.Protocol = "wormhole"
		res, err := runOne(ctx, cfg, wave.Workload{Pattern: "uniform", Load: 0.05, FixedLength: msgLen}, p)
		if err != nil {
			return nil, err
		}
		lat.wh = res.AvgLatency
	}
	{
		cfg := baseConfig(p)
		cfg.Protocol = "clrp"
		res, err := runOne(ctx, cfg, wave.Workload{
			Pattern: "uniform", Load: 0.05, FixedLength: msgLen,
			WorkingSet: 2, Reuse: 0.9, WantCircuit: true,
		}, p)
		if err != nil {
			return nil, err
		}
		lat.circuit = res.AvgLatency
	}
	layers := []msglayer.Costs{msglayer.Multicomputer(), msglayer.ActiveMessages(), msglayer.DSM()}
	tb := stats.NewTable("messaging layer", "wh-total", "sw-share", "circuit-total", "sw-share", "end-to-end gain")
	for _, c := range layers {
		whTotal := float64(c.Overhead(msgLen, false)) + lat.wh
		circTotal := float64(c.Overhead(msgLen, true)) + lat.circuit
		tb.AddRow(c.Name,
			whTotal, c.SoftwareShare(msgLen, false, lat.wh),
			circTotal, c.SoftwareShare(msgLen, true, lat.circuit),
			whTotal/circTotal)
	}
	return &Report{
		ID:    "E20",
		Title: fmt.Sprintf("Software messaging layer + measured hardware (128-flit messages; hw: wh=%.0f, circuit=%.0f cycles)", lat.wh, lat.circuit),
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
	type config struct {
		name, fn string
		vcs      int
	}
	configs := []config{
		{"dor (deterministic)", "dor", 2},
		{"west-first (turn model)", "westfirst", 2},
		{"negative-first (turn model)", "negativefirst", 2},
		{"duato (fully adaptive)", "duato", 2},
	}
	loads := []float64{0.05, 0.15, 0.25}
	grid := make([][]float64, len(configs))
	for i := range grid {
		grid[i] = make([]float64, len(loads))
	}
	err := parallel(ctx, p, len(configs)*len(loads), func(i int) error {
		ci, li := i/len(loads), i%len(loads)
		cfg := baseConfig(p)
		cfg.Topology = wave.TopologyConfig{Kind: "mesh", Radix: []int{p.Radix, p.Radix}}
		cfg.Protocol = "wormhole"
		cfg.Routing = configs[ci].fn
		cfg.NumVCs = configs[ci].vcs
		// Transpose concentrates traffic: adaptivity earns its keep.
		w := wave.Workload{Pattern: "transpose", Load: loads[li], FixedLength: 16}
		res, err := runOne(ctx, cfg, w, p)
		if err != nil {
			return fmt.Errorf("e21 %s load=%.2f: %w", configs[ci].name, loads[li], err)
		}
		grid[ci][li] = res.AvgLatency
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("routing", "lat@0.05", "lat@0.15", "lat@0.25")
	for i, c := range configs {
		tb.AddRow(c.name, grid[i][0], grid[i][1], grid[i][2])
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

// SaturationLoad binary-searches the applied load at which a configuration's
// average latency exceeds `factor` times its zero-load latency — the classic
// saturation-throughput metric of the interconnection-network literature.
// The returned load is accurate to `tol` flits/node/cycle.
func SaturationLoad(ctx context.Context, cfg wave.Config, w wave.Workload, p Params, factor, tol float64) (float64, error) {
	if factor <= 1 || tol <= 0 {
		return 0, fmt.Errorf("experiments: invalid saturation parameters")
	}
	latAt := func(load float64) (float64, error) {
		wl := w
		wl.Load = load
		res, err := runOne(ctx, cfg, wl, p)
		if err != nil {
			return 0, err
		}
		return res.AvgLatency, nil
	}
	base, err := latAt(0.01)
	if err != nil {
		return 0, err
	}
	limit := base * factor
	lo, hi := 0.01, 1.0
	// Expand: if even load 1.0 stays under the limit, the config never
	// saturates in range (report hi).
	if lat, err := latAt(hi); err != nil {
		// A watchdog trip at extreme load counts as saturated.
		lat = limit + 1
		_ = lat
	} else if lat <= limit {
		return hi, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		lat, err := latAt(mid)
		if err != nil {
			// Deadlock-free by theorem; an error here is a drain timeout
			// from extreme congestion — treat as saturated.
			hi = mid
			continue
		}
		if lat > limit {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Replicate runs fn across `reps` seeds (base, base+1, ...) and returns the
// sample mean and 95% confidence half-width of its scalar result — the
// multi-seed robustness check behind the EXPERIMENTS.md claims.
func Replicate(ctx context.Context, reps int, base uint64, fn func(seed uint64) (float64, error)) (mean, ci float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("experiments: reps must be >= 1")
	}
	vals := make([]float64, reps)
	err = parallel(ctx, Params{}, reps, func(i int) error {
		v, ferr := fn(base + uint64(i))
		vals[i] = v
		return ferr
	})
	if err != nil {
		return 0, 0, err
	}
	var s stats.Series
	for _, v := range vals {
		s.Add(v)
	}
	return s.Mean(), s.CI95(), nil
}
