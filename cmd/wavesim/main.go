// Command wavesim runs one wave-switching network simulation and prints its
// statistics. Every knob of the wave router and workload is a flag; the
// defaults reproduce the experiments' baseline (8x8 torus, CLRP).
//
// Examples:
//
//	wavesim -protocol clrp -load 0.1 -len 64 -reuse 0.8 -wset 4
//	wavesim -protocol wormhole -pattern transpose -len 128
//	wavesim -protocol carp -trace program.carp
//	wavesim -topology mesh -radix 16x16 -protocol pcs -len 256 -csv
//	wavesim -topology fattree -radix 4 -levels 2 -routing updown -vcs 1
//	wavesim -topology fullmesh -radix 16 -routing vcfree -vcs 1
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/viz"
	"repro/wave"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wavesim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// Flags a simulation run shares with cdgcheck and waved take their
	// defaults from wave.DefaultConfig, so the three agree on a bare run.
	def := wave.DefaultConfig()
	defRadix := make([]string, len(def.Topology.Radix))
	for i, r := range def.Topology.Radix {
		defRadix[i] = strconv.Itoa(r)
	}
	fs := flag.NewFlagSet("wavesim", flag.ContinueOnError)
	var (
		topoKind  = fs.String("topology", def.Topology.Kind, "topology kind: mesh, torus, hypercube, fattree, fullmesh")
		radix     = fs.String("radix", strings.Join(defRadix, "x"), "nodes per dimension for mesh/torus (e.g. 8x8); arity k for fattree; node count for fullmesh")
		hyperDims = fs.Int("hyperdims", 4, "hypercube dimensions (topology=hypercube)")
		levels    = fs.Int("levels", 2, "fat-tree levels n (topology=fattree)")
		proto     = fs.String("protocol", def.Protocol, "protocol: wormhole, clrp, carp, pcs")
		routing   = fs.String("routing", def.Routing, "wormhole routing: dor, duato, westfirst, negativefirst (mesh), updown (fattree), vcfree (fullmesh), dor-nodateline/vcfree-nolabel (need -recovery)")
		vcs       = fs.Int("vcs", def.NumVCs, "wormhole virtual channels per physical channel (w)")
		bufDepth  = fs.Int("bufdepth", def.BufDepth, "per-VC buffer depth in flits")
		switches  = fs.Int("switches", def.NumSwitches, "wave-pipelined switches per router (k)")
		misroutes = fs.Int("misroutes", def.MaxMisroutes, "MB-m misroute budget (m)")
		mult      = fs.Float64("clockmult", def.WaveClockMult, "wave clock multiplier")
		cacheCap  = fs.Int("cache", def.CacheCapacity, "circuit cache capacity per node")
		policy    = fs.String("replace", def.ReplacePolicy, "replacement policy: lru, lfu, random")
		recovery  = fs.Int64("recovery", def.RecoveryTimeout, "abort-and-retry deadlock recovery timeout in cycles (0 = off)")
		seed      = fs.Uint64("seed", def.Seed, "RNG seed (identical seeds => identical runs)")

		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")

		pattern = fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bitreverse, bitcomplement, tornado, neighbor, hotspot")
		load    = fs.Float64("load", 0.1, "applied load in flits/node/cycle")
		msgLen  = fs.Int("len", 64, "message length in flits")
		wset    = fs.Int("wset", 0, "working-set size for the locality model (0 = off)")
		reuse   = fs.Float64("reuse", 0, "working-set reuse probability")
		redraw  = fs.Int("redraw", 0, "messages between working-set redraws (0 = never)")
		noCirc  = fs.Bool("nocircuit", false, "CARP: send without requesting the circuit")
		minCirc = fs.Int("mincircuit", def.MinCircuitFlits, "CLRP: route messages shorter than this by wormhole (0 = off)")

		timeout = fs.Duration("timeout", 0, "abort the run after this wall-clock time (0 = no limit); a timed-out run exits non-zero")
		warmup  = fs.Int64("warmup", 2000, "warm-up cycles (excluded from stats)")
		measure = fs.Int64("measure", 10000, "measured cycles")
		faults  = fs.Int("faults", 0, "random faulty wave channels injected before the run")

		faultCount   = fs.Int("fault-count", 0, "random wave-channel faults injected mid-run (dynamic fault schedule; 0 = off)")
		faultStart   = fs.Int64("fault-start", 0, "cycle of the first dynamic fault (0 = cycle 1)")
		faultSpacing = fs.Int64("fault-spacing", 0, "cycles between consecutive dynamic faults")
		faultRepair  = fs.Int64("fault-repair", 0, "repair each dynamic fault after this many cycles (0 = permanent)")
		faultSeed    = fs.Uint64("fault-seed", 0, "seed of the dynamic fault draw (0 = derive from -seed)")
		retryLimit   = fs.Int("retry-limit", def.ProbeRetryLimit, "failed circuit setups re-armed up to this many times before falling back to wormhole (0 = off)")
		retryBackoff = fs.Int64("retry-backoff", def.RetryBackoffCycles, "base of the linear retry backoff in cycles (retry r waits r*base; min 1)")

		checkpointPath  = fs.String("checkpoint", "", "write periodic checkpoints (binary snapshots) to this file")
		checkpointEvery = fs.Int64("checkpoint-every", 5000, "cycles between checkpoints (-checkpoint)")
		checkpointStop  = fs.Bool("checkpoint-stop", false, "exit cleanly right after the first checkpoint is written")
		resumePath      = fs.String("resume", "", "resume from a checkpoint file (topology/protocol/workload come from the snapshot; other knob flags are ignored)")
		digest          = fs.Bool("digest", false, "print the SHA-256 digest of the final Stats (bit-exactness fingerprint)")

		tracePath   = fs.String("trace", "", "CARP directive trace file (overrides synthetic traffic)")
		csv         = fs.Bool("csv", false, "emit CSV instead of human-readable output")
		hist        = fs.Bool("hist", false, "print a latency histogram")
		vizFlag     = fs.Bool("viz", false, "print link-utilization heat maps (2-D topologies)")
		closed      = fs.Bool("closed", false, "closed-loop request-reply mode (DSM model) instead of open-loop load")
		outstanding = fs.Int("outstanding", 2, "closed loop: max outstanding requests per node")
		requests    = fs.Int("requests", 50, "closed loop: round trips per node")
		reqLen      = fs.Int("reqlen", 4, "closed loop: request length in flits")
		replyLen    = fs.Int("replylen", 32, "closed loop: reply length in flits")
		think       = fs.Int("think", 0, "closed loop: cycles between completion and next issue")
		compare     = fs.Bool("compare", false, "run the workload under all four protocols and print a comparison table")
		circuits    = fs.Bool("circuits", false, "print the established circuits after the run")
		eventsN     = fs.Int("events", 0, "record protocol events and print the retained tail (capacity N)")
		eventKind   = fs.String("eventkind", "", "filter printed events to one kind (send, setup-ok, phase2, ...)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	if *resumePath != "" {
		return runResume(out, *resumePath, *checkpointPath, *checkpointEvery, *checkpointStop, *digest, *timeout)
	}

	cfg := wave.DefaultConfig()
	cfg.Protocol = *proto
	cfg.Routing = *routing
	cfg.NumVCs = *vcs
	cfg.BufDepth = *bufDepth
	cfg.NumSwitches = *switches
	cfg.MaxMisroutes = *misroutes
	cfg.WaveClockMult = *mult
	cfg.CacheCapacity = *cacheCap
	cfg.ReplacePolicy = *policy
	cfg.MinCircuitFlits = *minCirc
	cfg.RecoveryTimeout = *recovery
	cfg.Seed = *seed
	cfg.FaultSchedule = wave.FaultScheduleConfig{
		Count: *faultCount, Start: *faultStart, Spacing: *faultSpacing,
		Repair: *faultRepair, Seed: *faultSeed,
	}
	cfg.ProbeRetryLimit = *retryLimit
	cfg.RetryBackoffCycles = *retryBackoff
	dims := *levels
	if *topoKind == "hypercube" {
		dims = *hyperDims
	}
	topo, err := wave.ParseTopology(*topoKind, *radix, dims)
	if err != nil {
		return err
	}
	cfg.Topology = topo

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sim, err := wave.New(cfg)
	if err != nil {
		return err
	}
	if *faults > 0 {
		if err := sim.InjectFaults(*faults, *seed+99); err != nil {
			return err
		}
	}
	if *eventsN > 0 {
		sim.EnableEventLog(*eventsN)
	}

	var ckptStopped bool
	if *checkpointPath != "" {
		var cancelCkpt context.CancelFunc
		if *checkpointStop {
			ctx, cancelCkpt = context.WithCancel(ctx)
			defer cancelCkpt()
		}
		armCheckpoints(sim, *checkpointPath, *checkpointEvery, func() {
			if *checkpointStop {
				ckptStopped = true
				cancelCkpt()
			}
		})
	}

	if *tracePath != "" {
		return runTrace(ctx, sim, *tracePath, out)
	}

	if *compare {
		return runCompare(ctx, out, cfg, wave.Workload{
			Pattern:      *pattern,
			Load:         *load,
			FixedLength:  *msgLen,
			WorkingSet:   *wset,
			Reuse:        *reuse,
			RedrawPeriod: *redraw,
			WantCircuit:  !*noCirc,
		}, *warmup, *measure)
	}

	if *closed {
		res, err := sim.RunClosedLoopContext(ctx, wave.ClosedWorkload{
			Pattern:      *pattern,
			WorkingSet:   *wset,
			Reuse:        *reuse,
			RedrawPeriod: *redraw,
			ReqFlits:     *reqLen,
			ReplyFlits:   *replyLen,
			Outstanding:  *outstanding,
			ThinkCycles:  *think,
			Requests:     *requests,
			WantCircuit:  !*noCirc,
		}, 50_000_000)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "closed loop     %d round trips (%d per node), %d cycles total\n",
			res.Completed, *requests, res.TotalCycles)
		fmt.Fprintf(out, "round trip      avg %.1f  p50 %.0f  p99 %.0f cycles\n",
			res.AvgRoundTrip, res.P50RoundTrip, res.P99RoundTrip)
		fmt.Fprintf(out, "rate            %.5f requests/node/cycle\n", res.Rate)
		fmt.Fprintf(out, "circuits        %.1f%% of messages, cache hit rate %.1f%%\n",
			res.CircuitFraction*100, res.HitRate*100)
		return nil
	}

	var lat []int64
	if *hist {
		sim.OnDelivered(func(d wave.Delivery) { lat = append(lat, d.Latency()) })
	}
	res, err := sim.RunLoadContext(ctx, wave.Workload{
		Pattern:      *pattern,
		Load:         *load,
		FixedLength:  *msgLen,
		WorkingSet:   *wset,
		Reuse:        *reuse,
		RedrawPeriod: *redraw,
		WantCircuit:  !*noCirc,
	}, *warmup, *measure)
	if err != nil {
		if ckptStopped && errors.Is(err, context.Canceled) {
			fmt.Fprintf(out, "checkpoint written to %s at cycle %d; resume with -resume %s\n",
				*checkpointPath, sim.Now(), *checkpointPath)
			return nil
		}
		return err
	}

	if *csv {
		fmt.Fprintf(out, "protocol,load,len,avg_latency,p50,p95,p99,throughput,circuit_frac,hit_rate,setup_cycles\n")
		fmt.Fprintf(out, "%s,%g,%d,%.2f,%.0f,%.0f,%.0f,%.4f,%.3f,%.3f,%.1f\n",
			res.Protocol, *load, *msgLen, res.AvgLatency, res.P50Latency, res.P95Latency,
			res.P99Latency, res.Throughput, res.CircuitFraction, res.HitRate, res.AvgSetupCycles)
		if *digest {
			printStatsDigest(out, sim)
		}
		return nil
	}

	fmt.Fprintf(out, "topology        %s, protocol %s (routing %s, w=%d, k=%d, MB-%d, %gx clock)\n",
		sim.Topology().Name(), res.Protocol, *routing, *vcs, *switches, *misroutes, *mult)
	fmt.Fprintf(out, "workload        %s, load %.3f flits/node/cycle, %d-flit messages", *pattern, *load, *msgLen)
	if *wset > 0 {
		fmt.Fprintf(out, ", working set %d @ %.0f%% reuse", *wset, *reuse*100)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "delivered       %d messages over %d cycles\n", res.Delivered, res.Cycles)
	fmt.Fprintf(out, "latency         avg %.1f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n",
		res.AvgLatency, res.P50Latency, res.P95Latency, res.P99Latency, res.MaxLatency)
	fmt.Fprintf(out, "throughput      %.4f flits/node/cycle accepted\n", res.Throughput)
	fmt.Fprintf(out, "circuits        %.1f%% of messages (circuit lat %.1f vs wormhole %.1f)\n",
		res.CircuitFraction*100, res.AvgCircuitLatency, res.AvgWormholeLatency)
	fmt.Fprintf(out, "circuit cache   hit rate %.1f%%, avg setup %.1f cycles\n", res.HitRate*100, res.AvgSetupCycles)
	pc := res.Counters
	fmt.Fprintf(out, "probes          %d launched, %d ok, %d failed, %d misroutes, %d backtracks\n",
		pc.Launched, pc.Succeeded, pc.Failed, pc.Misroutes, pc.Backtracks)
	fmt.Fprintf(out, "force machinery %d waits, %d releases sent, %d discarded, %d teardowns\n",
		pc.ForceWaits, pc.ReleasesSent, pc.ReleasesDiscarded, pc.Teardowns)
	if pc.FaultsInjected > 0 {
		ctr := sim.Counters()
		fmt.Fprintf(out, "faults          %d injected, %d repaired, %d circuits torn, %d probes killed\n",
			pc.FaultsInjected, pc.FaultRepairs, pc.FaultCircuitsTorn, pc.FaultProbesKilled)
		fmt.Fprintf(out, "recovery        %d setup retries, %d wormhole fallbacks\n",
			ctr.SetupRetries, ctr.FallbackWormhole)
	}

	if *hist && len(lat) > 0 {
		fmt.Fprintln(out, "\nlatency histogram (cycles):")
		if err := viz.Histogram(out, lat, 16); err != nil {
			return err
		}
	}
	if *vizFlag {
		if err := printLinkMap(out, sim, cfg); err != nil {
			return err
		}
	}
	if *circuits {
		cs := sim.Circuits()
		fmt.Fprintf(out, "\nestablished circuits: %d\n", len(cs))
		for _, c := range cs {
			fmt.Fprintf(out, "  %3d -> %-3d  S%d  %d hops  used %d times\n",
				c.Src, c.Dst, c.Switch+1, c.Hops, c.UseCount)
		}
	}
	if *eventsN > 0 {
		total, retained := sim.EventTotals()
		fmt.Fprintf(out, "\nprotocol events: %d recorded, last %d retained:\n", total, retained)
		if _, err := sim.RenderEvents(out, *eventKind); err != nil {
			return err
		}
	}
	if *digest {
		printStatsDigest(out, sim)
	}
	return nil
}

// armCheckpoints installs the periodic checkpoint hook: every `every`
// cycles the complete simulator state is written atomically (temp file +
// rename) to path, and wrote() fires after each successful write.
func armCheckpoints(sim *wave.Simulator, path string, every int64, wrote func()) {
	if every <= 0 {
		every = 5000
	}
	sim.OnInterval(every, func(int64) {
		if err := writeSnapshot(sim, path); err != nil {
			fmt.Fprintln(os.Stderr, "wavesim: checkpoint:", err)
			return
		}
		wrote()
	})
}

// writeSnapshot checkpoints atomically so a crash mid-write never destroys
// the previous good checkpoint.
func writeSnapshot(sim *wave.Simulator, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sim.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// printStatsDigest prints the SHA-256 of the final Stats JSON — the
// fingerprint the checkpoint-determinism CI step compares across an
// uninterrupted run and a checkpoint/resume pair.
func printStatsDigest(out io.Writer, sim *wave.Simulator) {
	j, err := json.Marshal(sim.Stats())
	if err != nil {
		fmt.Fprintln(os.Stderr, "wavesim: digest:", err)
		return
	}
	fmt.Fprintf(out, "stats-digest    sha256:%x\n", sha256.Sum256(j))
}

// runResume restores a checkpoint and drives the run it holds to
// completion, optionally re-arming further checkpoints.
func runResume(out io.Writer, path, ckptPath string, ckptEvery int64, ckptStop, digest bool, timeout time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sim, err := wave.Restore(f)
	f.Close()
	if err != nil {
		return err
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var ckptStopped bool
	if ckptPath != "" {
		var cancelCkpt context.CancelFunc
		if ckptStop {
			ctx, cancelCkpt = context.WithCancel(ctx)
			defer cancelCkpt()
		}
		armCheckpoints(sim, ckptPath, ckptEvery, func() {
			if ckptStop {
				ckptStopped = true
				cancelCkpt()
			}
		})
	}

	if !sim.InLoadRun() {
		fmt.Fprintf(out, "resumed %s at cycle %d (no load run in progress)\n", path, sim.Now())
	} else {
		res, err := sim.ResumeLoadContext(ctx)
		if err != nil {
			if ckptStopped && errors.Is(err, context.Canceled) {
				fmt.Fprintf(out, "checkpoint written to %s at cycle %d; resume with -resume %s\n",
					ckptPath, sim.Now(), ckptPath)
				return nil
			}
			return err
		}
		fmt.Fprintf(out, "resumed %s, run completed at cycle %d\n", path, res.Cycles)
		fmt.Fprintf(out, "delivered       %d messages over %d cycles\n", res.Delivered, res.Cycles)
		fmt.Fprintf(out, "latency         avg %.1f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n",
			res.AvgLatency, res.P50Latency, res.P95Latency, res.P99Latency, res.MaxLatency)
		fmt.Fprintf(out, "throughput      %.4f flits/node/cycle accepted\n", res.Throughput)
	}
	if digest {
		printStatsDigest(out, sim)
	}
	return nil
}

// printLinkMap renders per-dimension heat maps of link utilization for 2-D
// mesh/torus topologies via internal/viz.
func printLinkMap(out io.Writer, sim *wave.Simulator, cfg wave.Config) error {
	if cfg.Topology.Kind == "hypercube" || len(cfg.Topology.Radix) != 2 {
		return fmt.Errorf("-viz needs a 2-D mesh or torus")
	}
	loads := sim.LinkLoads()
	samples := make([]viz.LinkSample, len(loads))
	for i, l := range loads {
		samples[i] = viz.LinkSample{From: l.From, To: l.To, Dim: l.Dim, Flits: l.WormholeFlits + l.WaveFlits}
	}
	fmt.Fprintln(out)
	return viz.HeatMap(out, cfg.Topology.Radix[0], cfg.Topology.Radix[1], samples)
}

// runCompare runs the same workload under every protocol on fresh networks.
func runCompare(ctx context.Context, out io.Writer, cfg wave.Config, w wave.Workload, warmup, measure int64) error {
	fmt.Fprintf(out, "%-10s %-10s %-8s %-10s %-9s %-9s\n",
		"protocol", "avg-lat", "p99", "throughput", "circuits", "hit-rate")
	for _, proto := range []string{"wormhole", "pcs", "clrp", "carp"} {
		c := cfg
		c.Protocol = proto
		sim, err := wave.New(c)
		if err != nil {
			return err
		}
		res, err := sim.RunLoadContext(ctx, w, warmup, measure)
		if err != nil {
			return fmt.Errorf("%s: %w", proto, err)
		}
		fmt.Fprintf(out, "%-10s %-10.1f %-8.0f %-10.4f %-9s %-9s\n",
			proto, res.AvgLatency, res.P99Latency, res.Throughput,
			fmt.Sprintf("%.0f%%", res.CircuitFraction*100),
			fmt.Sprintf("%.0f%%", res.HitRate*100))
	}
	return nil
}

func runTrace(ctx context.Context, sim *wave.Simulator, path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var delivered, viaCircuit int
	var totalLat int64
	sim.OnDelivered(func(d wave.Delivery) {
		delivered++
		totalLat += d.Latency()
		if d.ViaCircuit {
			viaCircuit++
		}
	})
	if err := sim.RunProgramContext(ctx, f, 10_000_000); err != nil {
		return err
	}
	avg := 0.0
	if delivered > 0 {
		avg = float64(totalLat) / float64(delivered)
	}
	fmt.Fprintf(out, "trace %s: %d messages delivered (%d via circuit), avg latency %.1f cycles, %d cycles total\n",
		path, delivered, viaCircuit, avg, sim.Now())
	return nil
}
